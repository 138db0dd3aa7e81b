package core

import (
	"jportal/internal/bytecode"
	"jportal/internal/meta"
	"jportal/internal/source"
)

// DecodeThread runs the two-level decode for one thread's stitched packet
// stream: the native-level walk (the default source's decoder — Intel PT's
// role is played by libipt in the paper) followed by the bytecode-level
// mapping of §3 — template-range lookup for interpreted dispatches (§3.1)
// and debug-record lookup, through inline frames, for JITed ranges (§3.2).
// The result is the segmented bytecode token stream that reconstruction
// (§4) and recovery (§5) consume.
func DecodeThread(prog *bytecode.Program, snap *meta.Snapshot, items []source.Item) ([]*Segment, *DecodeThreadStats) {
	dec := source.Default().NewDecoder(snap)
	events := dec.Decode(items)
	segs, stats := TokenizeEvents(prog, events)
	ds := dec.Stats()
	stats.NativeDesyncs = ds.Desyncs
	stats.MalformedPackets = ds.FaultCount
	stats.SkippedPackets = ds.SkippedPackets
	stats.QuarantinedBytes = ds.SkippedBytes
	return segs, stats
}

// DecodeThreadStats summarises one thread's decode.
type DecodeThreadStats struct {
	Segments      int
	Tokens        int
	LocatedTokens int
	Gaps          int
	LostBytes     uint64
	NativeDesyncs int
	// MalformedPackets counts typed decode faults (graceful degradation:
	// each one cost a skip to the next PSB, not the thread).
	MalformedPackets int
	// SkippedPackets and QuarantinedBytes measure the spans discarded
	// while resynchronizing after malformed packets.
	SkippedPackets   int
	QuarantinedBytes uint64
	// TimeRegressions counts timestamp updates that went backwards within
	// one thread's stitched stream — the per-core clock-skew signature
	// (§7.2 timestamp inconsistency). Diagnostics only: decoding proceeds
	// with the regressed clock exactly as before.
	TimeRegressions int
}

// TokenizeEvents lowers native-level decoder events to bytecode tokens,
// splitting segments at gaps and desyncs.
func TokenizeEvents(prog *bytecode.Program, events []source.Event) ([]*Segment, *DecodeThreadStats) {
	tk := newTokenizer(prog)
	tk.feed(events)
	segs := tk.finish()
	st := tk.st
	return segs, &st
}

// StreamTokenizer is the exported handle over the streaming tokenizer:
// Feed lowers event chunks as they arrive, Take harvests (and forgets)
// the segments completed so far, Finish closes the open segment. Feeding
// chunks produces exactly the segments one TokenizeEvents batch call
// would. The bench harness drives it to measure the tokenizer's steady
// state — one persistent tokenizer, Take discarding output — where the
// token arena keeps allocations at ~O(tokens/slabSize) per chunk.
type StreamTokenizer struct{ t *tokenizer }

// NewStreamTokenizer returns a streaming tokenizer for prog.
func NewStreamTokenizer(prog *bytecode.Program) *StreamTokenizer {
	return &StreamTokenizer{t: newTokenizer(prog)}
}

// Feed lowers one chunk of native-level decoder events.
func (s *StreamTokenizer) Feed(events []source.Event) { s.t.feed(events) }

// Take returns the segments completed so far and forgets them. The slice
// reuses one harvest buffer across calls: it is valid until the next Feed.
func (s *StreamTokenizer) Take() []*Segment { return s.t.take() }

// Finish closes the open segment and returns the remaining segments.
func (s *StreamTokenizer) Finish() []*Segment { return s.t.finish() }

// Stats returns the lowering statistics accumulated so far.
func (s *StreamTokenizer) Stats() DecodeThreadStats { return s.t.st }

// tokenizer is the streaming form of TokenizeEvents: all lowering state —
// the open segment, the pending gap, the pending conditional dispatch, the
// current TSC — lives in the struct, so feeding events in chunks produces
// exactly the segments a single batch call would. Completed segments are
// harvested with take; finish closes the open segment.
type tokenizer struct {
	prog *bytecode.Program
	st   DecodeThreadStats
	segs []*Segment
	cur  *Segment
	// pendingGap is the gap awaiting attachment to the next segment.
	pendingGap *GapInfo
	tsc        uint64
	// pendingCond indexes (within the open span slab[segStart:]) the
	// conditional dispatch awaiting its TNT (interpreter mode pairs
	// TIP(template) + TNT). -1 = none.
	pendingCond int

	// slab is the token arena (DESIGN.md §12): tokens append into one
	// large backing array and segments are carved out of it as capped
	// sub-slices, so the steady state allocates one slab per
	// tokenSlabSize tokens instead of growing a fresh slice per
	// segment. Flushed segments alias retired slabs, which stay alive
	// exactly as long as the flows that reference them — this is an
	// arena, not a pool: slabs are never recycled. segStart is the
	// index in slab where the open segment begins: the open segment's
	// tokens are slab[segStart:], and cur.Tokens is set to that span
	// (capped) only when flush closes the segment, so appending a token
	// never stores a slice header into the heap-resident Segment.
	slab     []Token
	segStart int
	// curLocated counts located tokens in the open segment (maintained
	// by appendTok so flush doesn't rescan the segment).
	curLocated int
	// segSlab is the segment-header arena: headers are carved out of a
	// fixed-capacity block (never append-grown past cap, so issued
	// pointers stay valid) and a fresh block starts when one fills.
	segSlab []Segment
}

// tokenSlabSize is the token-arena block size (96 KiB of tokens) and
// segSlabSize the header-arena block size.
const (
	tokenSlabSize = 4096
	segSlabSize   = 128
)

func newTokenizer(prog *bytecode.Program) *tokenizer {
	t := &tokenizer{prog: prog, pendingCond: -1}
	t.cur = t.newSeg()
	return t
}

// newSeg carves a fresh segment header out of the header arena.
func (t *tokenizer) newSeg() *Segment {
	if len(t.segSlab) == cap(t.segSlab) {
		t.segSlab = make([]Segment, 0, segSlabSize)
	}
	t.segSlab = append(t.segSlab, Segment{})
	return &t.segSlab[len(t.segSlab)-1]
}

// growSlab starts a new token slab holding the open segment's tokens
// plus room for at least need more, leaving flushed segments aliased to
// the retired slab.
func (t *tokenizer) growSlab(need int) {
	open := len(t.slab) - t.segStart
	size := tokenSlabSize
	for size < (open+need)*2 {
		size *= 2
	}
	ns := make([]Token, open, size)
	copy(ns, t.slab[t.segStart:])
	t.slab = ns
	t.segStart = 0
}

func (t *tokenizer) flush(gapAfter *GapInfo) {
	if len(t.slab) > t.segStart {
		t.cur.Tokens = t.slab[t.segStart:len(t.slab):len(t.slab)]
		t.cur.GapBefore = t.pendingGap
		t.segs = append(t.segs, t.cur)
		t.st.Segments++
		t.st.Tokens += len(t.cur.Tokens)
		t.st.LocatedTokens += t.curLocated
		t.pendingGap = nil
		t.cur = t.newSeg()
	} else if t.pendingGap != nil && gapAfter != nil {
		// Merge adjacent gaps.
		gapAfter.LostBytes += t.pendingGap.LostBytes
		if t.pendingGap.Start < gapAfter.Start {
			gapAfter.Start = t.pendingGap.Start
		}
		gapAfter.Desync = gapAfter.Desync && t.pendingGap.Desync
	}
	t.segStart = len(t.slab)
	t.curLocated = 0
	t.pendingGap = gapAfter
}

func (t *tokenizer) appendTok(tok Token) {
	tok.TSC = t.tsc
	if tok.Method != bytecode.NoMethod {
		t.curLocated++
	}
	if len(t.slab) == cap(t.slab) {
		t.growSlab(1)
	}
	t.slab = append(t.slab, tok)
}

// feed lowers one chunk of decoder events.
func (t *tokenizer) feed(events []source.Event) {
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case source.EvTime:
			if ev.TSC < t.tsc {
				t.st.TimeRegressions++
			}
			t.tsc = ev.TSC
		case source.EvEnable, source.EvDisable, source.EvStub:
			t.pendingCond = -1
		case source.EvGap:
			t.pendingCond = -1
			t.st.Gaps++
			t.st.LostBytes += ev.LostBytes
			t.tsc = ev.GapEnd
			t.flush(&GapInfo{LostBytes: ev.LostBytes, Start: ev.GapStart, End: ev.GapEnd})
		case source.EvDesync:
			t.pendingCond = -1
			t.flush(&GapInfo{Start: t.tsc, End: t.tsc, Desync: true})
		case source.EvFault:
			// A malformed packet: the decoder is skipping to the next PSB.
			// Split the segment exactly like a desync — the span between
			// here and the resync point is quarantined, not decoded.
			t.pendingCond = -1
			t.flush(&GapInfo{Start: t.tsc, End: t.tsc, Desync: true})
		case source.EvTemplate:
			t.appendTok(Token{Op: ev.Op, Method: bytecode.NoMethod})
			if ev.Op.IsCondBranch() {
				t.pendingCond = len(t.slab) - t.segStart - 1
			} else {
				t.pendingCond = -1
			}
		case source.EvTemplateTNT:
			if t.pendingCond >= 0 && t.slab[t.segStart+t.pendingCond].Op == ev.Op {
				cond := &t.slab[t.segStart+t.pendingCond]
				cond.HasDir = true
				cond.Taken = ev.Taken
			} else {
				// A TNT without its dispatch (post-loss FUP anchored the
				// bits mid-template): synthesise the branch token.
				t.appendTok(Token{Op: ev.Op, Method: bytecode.NoMethod, HasDir: true, Taken: ev.Taken})
			}
			t.pendingCond = -1
		case source.EvJITRange:
			t.pendingCond = -1
			t.tokenizeRange(ev)
		}
	}
}

// take returns the segments completed so far and forgets them. The
// returned slice aliases the tokenizer's reused harvest buffer — it is
// valid only until the next feed, so callers must consume or copy it
// first (the analyzer appends it straight into its pending wave). The
// Segment pointers themselves live in the header arena and stay valid.
func (t *tokenizer) take() []*Segment {
	segs := t.segs
	t.segs = t.segs[:0]
	return segs
}

// finish closes the open segment and returns the remaining completed ones.
func (t *tokenizer) finish() []*Segment {
	t.flush(nil)
	return t.take()
}

// breakSegment force-closes the open segment around a quarantined span:
// after a stage crash the tokens accumulated so far are still sound (they
// were lowered before the crash) but the stream position is not, so the
// next segment starts behind a synthetic desync gap.
func (t *tokenizer) breakSegment() {
	t.pendingCond = -1
	t.flush(&GapInfo{Start: t.tsc, End: t.tsc, Desync: true})
}

// tokenizeRange converts an executed native instruction range into bytecode
// tokens via the blob's debug records, collapsing the several native
// instructions a bytecode lowers to into one token, and resolving inline
// frames to the innermost instruction (§6, "Dealing with Inlined Code").
// It is a tokenizer method (appending directly to the token slab) because
// it runs once per JIT range on the hot decode path — an emit callback
// would cost a closure allocation and an indirect call per token.
func (t *tokenizer) tokenizeRange(ev *source.Event) {
	blob := ev.Blob
	var lastM bytecode.MethodID = bytecode.NoMethod
	lastPC := int32(-1)
	var lastMethod *bytecode.Method
	for i := ev.First; i < ev.Last; i++ {
		if i < 0 || i >= len(blob.Debug) {
			return // stale metadata: fewer debug records than instructions
		}
		rec := &blob.Debug[i]
		if len(rec.Frames) == 0 {
			continue // stale metadata: frameless record
		}
		inner := rec.Frames[len(rec.Frames)-1]
		if inner.Method == lastM && inner.PC == lastPC {
			continue // same bytecode instruction, subsequent native instr
		}
		if inner.Method != lastM {
			lastMethod = t.prog.Method(inner.Method)
		}
		lastM, lastPC = inner.Method, inner.PC
		tok := Token{
			Method: inner.Method,
			PC:     inner.PC,
			Approx: rec.Approximate,
		}
		if lastMethod != nil && int(inner.PC) < len(lastMethod.Code) {
			tok.Op = lastMethod.Code[inner.PC].Op
		}
		t.appendTok(tok)
	}
}
