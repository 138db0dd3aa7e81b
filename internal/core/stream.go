package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"jportal/internal/conc"
	"jportal/internal/fault"
	"jportal/internal/meta"
	"jportal/internal/source"
)

// ThreadAnalyzer is the resumable form of Pipeline.AnalyzeThread: one
// thread's stitched packet stream is fed in chunks, decoded and tokenized
// incrementally, and reconstructed in waves bounded by
// PipelineConfig.MaxPendingSegments, so the decoded-but-unreconstructed
// backlog — not the whole trace — is what stays in memory.
//
// Hole recovery deliberately runs only at Finish: the §5 recoverer indexes
// every flow of the thread as a candidate continuation sequence for every
// hole (an early segment can splice a late hole), so recovering before the
// stream ends would change fills. It is built only when the finished
// thread has a hole (two or more flows) and recovery is enabled; a
// hole-free thread pays nothing for it. Wave boundaries, by contrast, are
// invisible: reconstruction is per-segment and order-preserving, so Finish
// returns byte-identical results to the batch call for any chunking and any
// cap.
type ThreadAnalyzer struct {
	p        *Pipeline
	snap     *meta.Snapshot
	dec      source.Decoder
	tk       *tokenizer
	res      *ThreadResult
	pend     []*Segment
	finished bool
	// ledger, when set, receives quarantine entries (decode faults, stage
	// crashes). Nil drops them.
	ledger *fault.Ledger
	// harvested decoder-fault watermarks, so each Feed reports only the
	// new faults to the ledger.
	seenFaults  int
	seenSkipped uint64
	seenDesyncs int
	seenRegress int
	// carried* accumulate diagnostics of decoders discarded after a stage
	// crash, so Finish reports the whole thread.
	carriedDesyncs  int
	carriedFaults   int
	carriedSkipPkts int
	carriedSkipByte uint64
	// segsSeen counts segments consumed by reconstruction waves — the
	// analyzer's watchdog heartbeat. Read via SegmentsSeen after a fan-out
	// returns (same-goroutine visibility).
	segsSeen uint64
	// timedOut records that the caller's deadline cut this thread short.
	// Atomic: reconstruction workers set it concurrently.
	timedOut atomic.Bool
}

// NewThreadAnalyzer starts the analysis of one thread's stream.
func (p *Pipeline) NewThreadAnalyzer(thread int, snap *meta.Snapshot) *ThreadAnalyzer {
	return &ThreadAnalyzer{
		p:    p,
		snap: snap,
		dec:  p.Source().NewDecoder(snap),
		tk:   newTokenizer(p.Prog),
		res:  &ThreadResult{Thread: thread},
	}
}

// SetLedger attaches the quarantine ledger exclusions are reported to.
func (a *ThreadAnalyzer) SetLedger(l *fault.Ledger) { a.ledger = l }

// Feed analyses the next chunk of the thread's stitched stream. When the
// completed-segment backlog reaches MaxPendingSegments, it is reconstructed
// as a wave (fanning out to the configured workers) and released.
func (a *ThreadAnalyzer) Feed(items []source.Item) {
	a.FeedContext(context.Background(), items)
}

// FeedContext is Feed with deadline awareness: once ctx is cancelled the
// chunk is quarantined under the deadline reason instead of decoded, so a
// timed-out analysis stops consuming CPU but stays structurally valid —
// Finish still returns a partial ThreadResult.
func (a *ThreadAnalyzer) FeedContext(ctx context.Context, items []source.Item) {
	if a.finished {
		panic("core: ThreadAnalyzer.Feed after Finish")
	}
	if ctx.Err() != nil {
		a.quarantineDeadline(len(items), chunkBytes(items), "feed cancelled")
		return
	}
	t0 := time.Now()
	for len(items) > 0 {
		n := min(len(items), decodeBatch)
		a.safeFeed(items[:n])
		items = items[n:]
	}
	a.harvestFaults()
	a.pend = append(a.pend, a.tk.take()...)
	if cap := a.p.Cfg.MaxPendingSegments; cap > 0 && len(a.pend) >= cap {
		a.reconstructContext(ctx)
	}
	a.res.DecodeTime += time.Since(t0)
}

// quarantineDeadline records input dropped because the caller's context
// expired and marks the thread timed out.
func (a *ThreadAnalyzer) quarantineDeadline(items int, bytes uint64, detail string) {
	a.timedOut.Store(true)
	a.ledger.Add(fault.Entry{
		Reason: fault.ReasonDeadline, Thread: a.res.Thread, Core: -1,
		Items: items, Bytes: bytes, Detail: detail,
	})
}

// SegmentsSeen returns how many segments reconstruction has consumed — a
// monotone progress heartbeat for the watchdog. Read it from the goroutine
// that drives the analyzer (or after a fan-out has returned).
func (a *ThreadAnalyzer) SegmentsSeen() uint64 { return a.segsSeen }

// TimedOut reports whether a deadline cut this thread's analysis short.
func (a *ThreadAnalyzer) TimedOut() bool { return a.timedOut.Load() }

// decodeBatch bounds how many items one decode call takes, so the
// decoder's event buffer stays at a batch's worth of events however large
// the stitched delta is. Decoding is chunk-invariant, so the batch size
// never changes what is computed — only a decoder crash's blast radius.
const decodeBatch = 1024

// safeFeed runs the decode+tokenize of one batch with panic containment:
// a crash quarantines this batch only, rebuilds the decoder (its walking
// state is what crashed) and splits the token stream behind a synthetic
// desync, so the rest of the delta, the thread — and every other thread —
// keep analysing. It runs inside the Session's per-thread fan-out, where
// an escaped panic would kill the process.
func (a *ThreadAnalyzer) safeFeed(items []source.Item) {
	defer func() {
		if r := recover(); r != nil {
			a.ledger.Add(fault.Entry{
				Reason: fault.ReasonStageCrash, Thread: a.res.Thread, Core: -1,
				Items: len(items), Bytes: chunkBytes(items),
				Detail: fmt.Sprintf("decode: %v", r),
			})
			// Report what the crashed decoder found in the delta's earlier
			// batches before it is discarded.
			a.harvestFaults()
			ds := a.dec.Stats()
			a.carriedDesyncs += ds.Desyncs
			a.carriedFaults += ds.FaultCount
			a.carriedSkipPkts += ds.SkippedPackets
			a.carriedSkipByte += ds.SkippedBytes
			a.seenFaults, a.seenSkipped, a.seenDesyncs = 0, 0, 0
			a.dec = a.p.Source().NewDecoder(a.snap)
			a.tk.breakSegment()
		}
	}()
	a.tk.feed(a.dec.DecodeChunk(items))
}

// harvestFaults reports the decode stage's new typed exclusions to the
// ledger: malformed packets (with the bytes skipped to the next PSB),
// lost-sync episodes, and per-thread time regressions.
func (a *ThreadAnalyzer) harvestFaults() {
	if a.ledger == nil {
		return
	}
	ds := a.dec.Stats()
	if n := ds.FaultCount; n > a.seenFaults {
		a.ledger.Add(fault.Entry{
			Reason: fault.ReasonMalformedPacket, Thread: a.res.Thread, Core: -1,
			Count: n - a.seenFaults, Bytes: ds.SkippedBytes - a.seenSkipped,
		})
		a.seenFaults = n
		a.seenSkipped = ds.SkippedBytes
	}
	if n := ds.Desyncs; n > a.seenDesyncs {
		a.ledger.Add(fault.Entry{
			Reason: fault.ReasonLostSync, Thread: a.res.Thread, Core: -1,
			Count: n - a.seenDesyncs,
		})
		a.seenDesyncs = n
	}
	if n := a.tk.st.TimeRegressions; n > a.seenRegress {
		a.ledger.Add(fault.Entry{
			Reason: fault.ReasonClockSkew, Thread: a.res.Thread, Core: -1,
			Count: n - a.seenRegress,
		})
		a.seenRegress = n
	}
}

func chunkBytes(items []source.Item) uint64 {
	var n uint64
	for i := range items {
		if !items[i].Gap {
			n += uint64(items[i].Packet.WireLen)
		}
	}
	return n
}

// PendingSegments returns the decoded-but-unreconstructed backlog.
func (a *ThreadAnalyzer) PendingSegments() int { return len(a.pend) }

// reconstruct projects the pending segments onto the ICFG, appending their
// flows in segment order (slot-addressed, so identical for any worker
// count), and drops the segment references.
func (a *ThreadAnalyzer) reconstruct() { a.reconstructContext(context.Background()) }

// reconstructContext is reconstruct under a deadline: segments whose turn
// comes after ctx is cancelled are quarantined (an empty, Quarantined flow
// — never nil, so slot addressing and hole bookkeeping stay intact) rather
// than projected.
func (a *ThreadAnalyzer) reconstructContext(ctx context.Context) {
	if len(a.pend) == 0 {
		return
	}
	base := len(a.res.Flows)
	a.res.Flows = append(a.res.Flows, make([]*SegmentFlow, len(a.pend))...)
	pend := a.pend
	var cancelled atomic.Int64
	// Scratch comes from the matcher's pool (released after the wave),
	// so repeated waves reuse warm buffers instead of reallocating and
	// re-zeroing the NumNodes-sized seen[] each time.
	conc.ParallelWorkRelease(a.p.Cfg.WorkerCount(), len(pend),
		a.p.Matcher.getScratch, a.p.Matcher.putScratch,
		func(sc *MatchScratch, i int) {
			if ctx.Err() != nil {
				a.timedOut.Store(true)
				cancelled.Add(1)
				a.res.Flows[base+i] = quarantinedFlow(pend[i], a.p.Matcher.G)
				return
			}
			a.res.Flows[base+i] = a.safeReconstruct(sc, pend[i])
		})
	if n := cancelled.Load(); n > 0 {
		a.ledger.Add(fault.Entry{
			Reason: fault.ReasonDeadline, Thread: a.res.Thread, Core: -1,
			Count: int(n), Items: int(n), Detail: "reconstruction cancelled",
		})
	}
	a.segsSeen += uint64(len(pend))
	for i := range a.pend {
		a.pend[i] = nil
	}
	a.pend = a.pend[:0]
}

// safeReconstruct projects one segment with panic containment: a matcher
// crash (tokens from stale or hostile JIT metadata can carry PCs no ICFG
// node exists for) quarantines that segment — recorded as an empty,
// Quarantined flow so slot addressing and hole bookkeeping stay intact —
// instead of killing the worker pool.
func (a *ThreadAnalyzer) safeReconstruct(sc *MatchScratch, seg *Segment) (f *SegmentFlow) {
	defer func() {
		if r := recover(); r != nil {
			a.ledger.Add(fault.Entry{
				Reason: fault.ReasonStaleMetadata, Thread: a.res.Thread, Core: -1,
				Items:  len(seg.Tokens),
				Detail: fmt.Sprintf("reconstruct: %v", r),
			})
			f = quarantinedFlow(seg, a.p.Matcher.G)
		}
	}()
	return a.p.Matcher.ReconstructSegmentScratch(sc, seg)
}

// Finish flushes the decoder and tokenizer, reconstructs the remaining
// segments, runs §5 hole recovery over the complete flow sequence, and
// merges the end-to-end profile — exactly AnalyzeThread's tail. Repeated
// calls return the same result.
func (a *ThreadAnalyzer) Finish() *ThreadResult {
	return a.FinishContext(context.Background())
}

// FinishContext is Finish under a deadline: once ctx is cancelled, pending
// segments are quarantined instead of reconstructed and §5 recovery is
// skipped (every hole stays a hole — degradation, not failure), so a
// timed-out Close returns a partial-but-valid ThreadResult promptly.
func (a *ThreadAnalyzer) FinishContext(ctx context.Context) *ThreadResult {
	if a.finished {
		return a.res
	}
	a.finished = true
	res := a.res

	t0 := time.Now()
	a.tk.feed(a.dec.Flush())
	a.harvestFaults()
	a.pend = append(a.pend, a.tk.finish()...)
	ds := a.dec.Stats()
	st := a.tk.st
	st.NativeDesyncs = a.carriedDesyncs + ds.Desyncs
	st.MalformedPackets = a.carriedFaults + ds.FaultCount
	st.SkippedPackets = a.carriedSkipPkts + ds.SkippedPackets
	st.QuarantinedBytes = a.carriedSkipByte + ds.SkippedBytes
	res.Decode = st
	a.reconstructContext(ctx)
	res.DecodeTime += time.Since(t0)

	t1 := time.Now()
	var rec *Recoverer
	if ctx.Err() != nil {
		if a.timedOut.CompareAndSwap(false, true) {
			// The deadline landed between reconstruction and recovery: no
			// segment was cut, but recovery is skipped — record why.
			a.ledger.Add(fault.Entry{
				Reason: fault.ReasonDeadline, Thread: a.res.Thread, Core: -1,
				Detail: "recovery skipped",
			})
		}
	} else if len(res.Flows) >= 2 && !a.p.Cfg.Recovery.Disable {
		// Only a thread with a hole has anything to recover; without one
		// (or with recovery disabled) every fill is FillNone, exactly what
		// RecoverHole would return, so the index is not built at all.
		rec = a.safeRecoverer()
	}
	res.Fills = make([]Fill, len(res.Flows))
	if rec != nil {
		conc.ParallelFor(a.p.Cfg.WorkerCount(), len(res.Flows)-1, func(i int) {
			if ctx.Err() != nil {
				a.timedOut.Store(true)
				return // Fill zero value = FillNone: the hole stays open
			}
			res.Fills[i] = a.safeRecoverHole(rec, i)
		})
	}
	res.RecoverTime = time.Since(t1)

	// Merge the end-to-end profile from the per-flow steps and fills.
	mergeSteps(res)
	return res
}

// safeRecoverer builds the §5 recoverer with panic containment: if index
// construction crashes (hostile tokens), recovery is skipped for the whole
// thread — every hole stays a hole, which is degradation, not failure.
func (a *ThreadAnalyzer) safeRecoverer() (rec *Recoverer) {
	defer func() {
		if r := recover(); r != nil {
			a.ledger.Add(fault.Entry{
				Reason: fault.ReasonStageCrash, Thread: a.res.Thread, Core: -1,
				Detail: fmt.Sprintf("recoverer: %v", r),
			})
			rec = nil
		}
	}()
	return NewRecoverer(a.p.Matcher, a.res.Flows, a.p.Cfg.Recovery)
}

// safeRecoverHole fills one hole with panic containment: a crash leaves
// that hole unfilled and quarantines nothing else.
func (a *ThreadAnalyzer) safeRecoverHole(rec *Recoverer, i int) (fill Fill) {
	defer func() {
		if r := recover(); r != nil {
			a.ledger.Add(fault.Entry{
				Reason: fault.ReasonStageCrash, Thread: a.res.Thread, Core: -1,
				Detail: fmt.Sprintf("recover hole %d: %v", i, r),
			})
			fill = Fill{}
		}
	}()
	return rec.RecoverHole(i)
}

// mergeSteps assembles the thread's final profile from flows and fills.
func mergeSteps(res *ThreadResult) {
	total := 0
	for i, f := range res.Flows {
		total += f.Matched()
		if i < len(res.Fills) {
			total += len(res.Fills[i].Steps)
		}
	}
	res.Steps = make([]Step, 0, total)
	for i, f := range res.Flows {
		before := len(res.Steps)
		res.Steps = f.AppendSteps(res.Steps)
		res.DecodedSteps += len(res.Steps) - before
		if i < len(res.Fills) && res.Fills[i].Method != FillNone {
			res.Steps = append(res.Steps, res.Fills[i].Steps...)
			res.RecoveredSteps += len(res.Fills[i].Steps)
		}
	}
}
