package core

import (
	"time"

	"jportal/internal/source"
)

// TokenizerState is the tokenizer's checkpointable lowering state: the
// open segment, the gap awaiting attachment, the clock, and the pending
// conditional dispatch. Only valid between Feed calls, after take() — the
// completed-segment list must be empty (harvested into the analyzer's
// backlog), which ThreadAnalyzer.Feed guarantees.
type TokenizerState struct {
	Stats       DecodeThreadStats
	Cur         *Segment
	PendingGap  *GapInfo
	TSC         uint64
	PendingCond int
}

// exportState deep-copies the tokenizer's state (the live tokenizer keeps
// appending to its open segment after the snapshot).
func (t *tokenizer) exportState() TokenizerState {
	if len(t.segs) != 0 {
		panic("core: tokenizer export with unharvested segments")
	}
	st := TokenizerState{
		Stats:       t.st,
		TSC:         t.tsc,
		PendingCond: t.pendingCond,
	}
	if open := t.slab[t.segStart:]; len(open) > 0 || t.cur.GapBefore != nil {
		st.Cur = &Segment{
			Tokens:    append([]Token(nil), open...),
			GapBefore: t.cur.GapBefore,
		}
	}
	if t.pendingGap != nil {
		g := *t.pendingGap
		st.PendingGap = &g
	}
	return st
}

// restoreState rebuilds the tokenizer from a checkpointed state. A nil Cur
// (gob's encoding of a pointer to a zero struct, or an export taken with
// an empty open segment) is normalised back to a fresh Segment.
func (t *tokenizer) restoreState(st TokenizerState) {
	t.st = st.Stats
	t.segs = nil
	// Adopt the checkpointed open segment into the token arena: the
	// restored tokens are copied to the head of a fresh open span
	// slab[segStart:], where appendTok continues it.
	t.segStart = len(t.slab)
	t.cur = t.newSeg()
	t.curLocated = 0
	if st.Cur != nil {
		t.cur.GapBefore = st.Cur.GapBefore
		if n := len(st.Cur.Tokens); n > 0 {
			if len(t.slab)+n > cap(t.slab) {
				t.growSlab(n)
			}
			t.slab = append(t.slab, st.Cur.Tokens...)
			for i := range st.Cur.Tokens {
				if st.Cur.Tokens[i].Located() {
					t.curLocated++
				}
			}
		}
	}
	t.pendingGap = st.PendingGap
	t.tsc = st.TSC
	t.pendingCond = st.PendingCond
}

// ThreadAnalyzerState is one thread's checkpointable analysis state
// (DESIGN.md §11): decoder walking state, tokenizer lowering state, the
// decoded-but-unreconstructed backlog, the flows already reconstructed,
// and the fault-harvest watermarks. Only valid at quiescence — between
// Session drains, outside any wave — and only before Finish.
type ThreadAnalyzerState struct {
	Thread     int
	Decoder    source.WalkerState
	Tokenizer  TokenizerState
	Pend       []*Segment
	Flows      []*SegmentFlow
	DecodeTime time.Duration
	SegsSeen   uint64

	SeenFaults  int
	SeenSkipped uint64
	SeenDesyncs int
	SeenRegress int

	CarriedDesyncs  int
	CarriedFaults   int
	CarriedSkipPkts int
	CarriedSkipByte uint64
}

// ExportState snapshots the analyzer for a checkpoint. It panics after
// Finish: a finished thread is a result, not resumable state.
func (a *ThreadAnalyzer) ExportState() ThreadAnalyzerState {
	if a.finished {
		panic("core: ThreadAnalyzer.ExportState after Finish")
	}
	return ThreadAnalyzerState{
		Thread:     a.res.Thread,
		Decoder:    a.dec.ExportState(),
		Tokenizer:  a.tk.exportState(),
		Pend:       append([]*Segment(nil), a.pend...),
		Flows:      append([]*SegmentFlow(nil), a.res.Flows...),
		DecodeTime: a.res.DecodeTime,
		SegsSeen:   a.segsSeen,

		SeenFaults:  a.seenFaults,
		SeenSkipped: a.seenSkipped,
		SeenDesyncs: a.seenDesyncs,
		SeenRegress: a.seenRegress,

		CarriedDesyncs:  a.carriedDesyncs,
		CarriedFaults:   a.carriedFaults,
		CarriedSkipPkts: a.carriedSkipPkts,
		CarriedSkipByte: a.carriedSkipByte,
	}
}

// RestoreState rebuilds a freshly-constructed analyzer from a checkpointed
// state. Flows crossed the checkpoint without their unexported ICFG
// reference (gob skips it), so each one is reattached to this pipeline's
// graph; segment abstraction caches rebuild lazily on first use.
func (a *ThreadAnalyzer) RestoreState(st ThreadAnalyzerState) error {
	if err := a.dec.RestoreState(st.Decoder); err != nil {
		return err
	}
	a.tk.restoreState(st.Tokenizer)
	a.pend = append([]*Segment(nil), st.Pend...)
	a.res.Thread = st.Thread
	a.res.Flows = append([]*SegmentFlow(nil), st.Flows...)
	for _, f := range a.res.Flows {
		if f != nil {
			f.g = a.p.Matcher.G
		}
	}
	a.res.DecodeTime = st.DecodeTime
	a.segsSeen = st.SegsSeen

	a.seenFaults = st.SeenFaults
	a.seenSkipped = st.SeenSkipped
	a.seenDesyncs = st.SeenDesyncs
	a.seenRegress = st.SeenRegress

	a.carriedDesyncs = st.CarriedDesyncs
	a.carriedFaults = st.CarriedFaults
	a.carriedSkipPkts = st.CarriedSkipPkts
	a.carriedSkipByte = st.CarriedSkipByte
	return nil
}
