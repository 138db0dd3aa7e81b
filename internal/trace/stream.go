// The streaming half of package trace: StreamStitcher performs the same
// per-core carve and cross-core stitch as SplitByThread, but incrementally,
// over chunks of trace items and sideband records as they arrive, with
// bounded buffering. Its output — the concatenation of the per-thread
// deltas it emits — is byte-identical to the batch split for every chunking
// and every watermark schedule, including the §6/§7.2 timestamp-
// inconsistency misattributions, which depend only on the packet and
// sideband timestamps, not on delivery granularity.
//
// The incremental carve is sound because of three monotonicity facts:
//
//   - sideband records are time-monotone per core, so once the caller
//     declares a watermark w for a core (every switch record with TSC < w
//     has been delivered), the scheduling-window boundaries below w are
//     final;
//   - the carve cursor wi only moves forward, so windows behind it can
//     never receive more items;
//   - a core's loss gaps are monotone (GapStart >= the previous GapEnd),
//     so a gap never writes into a window behind the cursor.
//
// Cross-core emission additionally requires that no other core can still
// produce a window ordering before the candidate: each core exposes a
// frontier — the (start, core, window) key of its earliest still-open
// window, or its watermark if it has no sideband yet — and a closed window
// is emitted only once it precedes every frontier. That reproduces the
// batch stable sort (start, then core, then window index) exactly.
package trace

import (
	"fmt"
	"sort"

	"jportal/internal/conc"
	"jportal/internal/fault"
	"jportal/internal/source"
	"jportal/internal/vm"
)

// stWindow is a scheduling window's carved items, as spans over its core's
// item log: open while the carve cursor can still reach it, then closed
// and awaiting cross-core emission.
type stWindow struct {
	thread int
	start  uint64
	end    uint64 // next record's TSC on the core, or the carve cursor for the last window
	rec    int    // index into the core's collapsed sideband records
	spans  []span
	n      int // items across spans
}

// add appends sp to the window, extending the last span when sp continues
// it in the log.
func (w *stWindow) add(sp span) {
	w.n += sp.items()
	if k := len(w.spans) - 1; k >= 0 && sp.syn == nil && w.spans[k].syn == nil && w.spans[k].hi == sp.lo {
		w.spans[k].hi = sp.hi
		return
	}
	w.spans = append(w.spans, sp)
}

// coreStitch is the per-core incremental carve state.
type coreStitch struct {
	// tr is the source's packet vocabulary (shared with the stitcher).
	tr *source.Traits
	// recs is the collapsed sideband (consecutive same-thread records
	// merged, first kept), append-only so window indices are stable.
	recs []vm.SwitchRecord
	// mark is the sideband watermark: every record with TSC < mark has
	// been delivered.
	mark uint64
	// log holds every fed item still referenced; next is the log index of
	// the first item not yet carved (the items [next, log.end) are
	// pending).
	log  itemLog
	next int
	// wi and tsc are the carve cursor: the current window index and the
	// last timestamp seen (from TSC packets and gap ends).
	wi  int
	tsc uint64
	// open holds the windows at or ahead of the cursor (the cursor window
	// plus any windows a gap pre-populated), in window order.
	open []stWindow
	// closed holds carved windows behind the cursor, in window order,
	// awaiting cross-core emission.
	closed []stWindow
	// fo caches the earliest thread-owned window index >= wi (idle
	// windows are dropped at close, so they never gate emission).
	fo int
}

// StreamStitcher incrementally segregates per-core trace chunks into
// per-thread streams. Feed order within a core must be export order;
// cores and sideband may interleave arbitrarily.
type StreamStitcher struct {
	// tr is the source's packet vocabulary (which kinds carry timestamps).
	tr        *source.Traits
	cores     []coreStitch
	maxThread int
	finished  bool
	// lastThread tracks, per core, the thread of the last kept sideband
	// record (collapseRuns, incrementally). -2 = none yet.
	lastThread []int
	// lastTSC tracks, per core, the timestamp of the last delivered
	// sideband record: the monotonicity gate torn/reordered records are
	// quarantined at.
	lastTSC []uint64
	// ledger, when set, receives quarantine entries (dropped sideband
	// records, crashed carves). Nil drops them.
	ledger *fault.Ledger
	// emittedEnd tracks, per thread, the end of the last window emitted for
	// it. A thread occupies one core at a time, so on an honest run its
	// windows are disjoint in time; a window starting before the previous
	// one ended is the cross-core clock-skew signature (§6 timestamp
	// inconsistency) and is reported to the ledger. Report-only: the window
	// still emits, so output stays batch-identical.
	emittedEnd map[int]uint64
	// popped is emit's scratch list of windows popped for emission.
	popped []emitted
}

// NewStreamStitcher creates a stitcher for cores 0..ncores-1 (the core
// numbering of the source collector and of RunResult.Traces, which the
// batch path keeps sorted — the stitcher breaks window-start ties by core
// number the way the batch stable sort breaks them by slice position). tr
// identifies the time-bearing packet kinds of the trace's source.
func NewStreamStitcher(ncores int, tr *source.Traits) *StreamStitcher {
	s := &StreamStitcher{
		tr:         tr,
		cores:      make([]coreStitch, ncores),
		lastThread: make([]int, ncores),
		lastTSC:    make([]uint64, ncores),
		emittedEnd: make(map[int]uint64),
	}
	for i := range s.cores {
		s.cores[i].tr = tr
		s.lastThread[i] = -2
	}
	return s
}

// SetLedger attaches the quarantine ledger exclusions are reported to.
func (s *StreamStitcher) SetLedger(l *fault.Ledger) { s.ledger = l }

// AddSideband delivers scheduler switch records (any cores, in the global
// order the VM recorded them, which is time-monotone per core). Records for
// cores beyond the stitcher's range still widen the thread space, exactly
// as the batch split sizes its output from the whole sideband. A record
// that violates per-core time monotonicity — torn or reordered sideband —
// is quarantined rather than trusted: the incremental carve's soundness
// rests on that monotonicity (see the package comment), so accepting the
// record would silently misattribute trace bytes across threads.
func (s *StreamStitcher) AddSideband(recs []vm.SwitchRecord) {
	for _, r := range recs {
		if r.Thread > s.maxThread {
			s.maxThread = r.Thread
		}
		if r.Core < 0 || r.Core >= len(s.cores) {
			continue
		}
		if r.TSC < s.lastTSC[r.Core] {
			s.ledger.Add(fault.Entry{
				Reason: fault.ReasonSidebandOrder, Thread: r.Thread, Core: r.Core,
				Detail: fmt.Sprintf("switch record tsc %d after %d", r.TSC, s.lastTSC[r.Core]),
			})
			continue
		}
		s.lastTSC[r.Core] = r.TSC
		if s.lastThread[r.Core] == r.Thread {
			continue // collapseRuns: same owner as the previous record
		}
		s.lastThread[r.Core] = r.Thread
		s.cores[r.Core].recs = append(s.cores[r.Core].recs, r)
	}
}

// Watermark declares that every sideband record for core with TSC < w has
// been delivered. Watermarks only move forward.
func (s *StreamStitcher) Watermark(core int, w uint64) {
	if core < 0 || core >= len(s.cores) {
		return
	}
	if w > s.cores[core].mark {
		s.cores[core].mark = w
	}
}

// Feed delivers one chunk of a core's exported trace, in export order.
func (s *StreamStitcher) Feed(core int, items []source.Item) error {
	if s.finished {
		return fmt.Errorf("trace: Feed after Finish")
	}
	if core < 0 || core >= len(s.cores) {
		return fmt.Errorf("trace: chunk for core %d, stitcher has %d cores", core, len(s.cores))
	}
	s.cores[core].log.append(items)
	return nil
}

// BufferedItems returns the number of trace items currently held (pending
// carve plus carved-but-unemitted windows) — the stitcher's in-flight
// trace memory.
func (s *StreamStitcher) BufferedItems() int {
	n := 0
	for i := range s.cores {
		c := &s.cores[i]
		n += c.log.end - c.next
		for _, w := range c.open {
			n += w.n
		}
		for _, w := range c.closed {
			n += w.n
		}
	}
	return n
}

// NumThreads returns the thread-space size seen so far (at least 1, like
// the batch split).
func (s *StreamStitcher) NumThreads() int { return s.maxThread + 1 }

// windowAt returns the index of the scheduling window covering t, over the
// records known so far (identical to the batch binary search once the
// record list below t is final).
func (c *coreStitch) windowAt(t uint64) int {
	i := sort.Search(len(c.recs), func(i int) bool { return c.recs[i].TSC > t })
	if i == 0 {
		return 0
	}
	return i - 1
}

// carve advances the per-core carve over pending items. Unless final, it
// stops at the first item whose window assignment could still be changed
// by sideband at or above the watermark: a TSC packet at or past the mark,
// or a gap ending at or past it. Items without their own timestamp always
// carve — they join the cursor window, which is already determined. Carved
// items stay where they are in the log: a window records index spans.
func (c *coreStitch) carve(final bool) {
	if len(c.recs) == 0 {
		// No sideband for this core yet: no window exists to place items
		// in. The batch split drops such a core's trace entirely.
		if final {
			c.next = c.log.end
		}
		return
	}
	// run is the start of the items bound for the cursor window since it
	// last changed; they join it as one span when the cursor moves, a gap
	// intervenes, or the carve stops.
	run := c.next
	flush := func() {
		if c.next > run {
			c.window(c.wi).add(span{lo: run, hi: c.next})
		}
	}
	for c.next < c.log.end {
		it := c.log.at(c.next)
		if it.Gap {
			if !final && it.GapEnd >= c.mark {
				break
			}
			flush()
			c.spreadGap(c.next, *it)
			c.tsc = it.GapEnd
			if w := c.windowAt(c.tsc); w > c.wi {
				c.wi = w
			}
			c.next++
			run = c.next
			continue
		}
		if c.tr.IsTime(it.Packet.Kind) {
			if !final && it.Packet.TSC >= c.mark {
				break
			}
			c.tsc = it.Packet.TSC
			if w := c.windowAt(c.tsc); w > c.wi {
				flush()
				c.wi = w
				run = c.next
			}
		}
		c.next++
	}
	flush()
	c.close(final)
}

// spreadGap distributes the gap item at log index g to every window it
// overlaps, clipped to the window bounds, exactly as the batch carve
// does. A piece identical to the logged item — the gap fits one window —
// is a span over the log; only a clipped piece needs a synthetic item.
func (c *coreStitch) spreadGap(g int, it source.Item) {
	lo := c.windowAt(it.GapStart)
	hi := c.windowAt(it.GapEnd)
	d := it.GapEnd - it.GapStart
	for j := lo; j <= hi; j++ {
		p := it
		if j > lo {
			p.GapStart = c.recs[j].TSC
		}
		if j < hi && j+1 < len(c.recs) {
			p.GapEnd = c.recs[j+1].TSC
		}
		if p.GapEnd <= p.GapStart {
			continue
		}
		if d > 0 {
			p.LostBytes = it.LostBytes * (p.GapEnd - p.GapStart) / d
		}
		if p == it {
			c.window(j).add(span{lo: g, hi: g + 1})
		} else {
			c.window(j).add(span{syn: &p})
		}
	}
}

// window returns open window j, opening it if needed. The pointer is valid
// until the next call.
func (c *coreStitch) window(j int) *stWindow {
	k := len(c.open)
	for k > 0 && c.open[k-1].rec >= j {
		if c.open[k-1].rec == j {
			return &c.open[k-1]
		}
		k--
	}
	c.open = append(c.open, stWindow{})
	copy(c.open[k+1:], c.open[k:])
	c.open[k] = stWindow{rec: j}
	return &c.open[k]
}

// close moves windows the cursor has passed (all of them when final) from
// open to the closed queue, dropping empty and idle-owned ones like the
// batch split does.
func (c *coreStitch) close(final bool) {
	keep := c.open[:0]
	for _, w := range c.open {
		if !final && w.rec >= c.wi {
			keep = append(keep, w)
			continue
		}
		j := w.rec
		if w.n == 0 || c.recs[j].Thread < 0 {
			continue
		}
		// The window runs until the core's next switch record; the last
		// window on a core has no successor, so the carve cursor (the
		// newest timestamp actually seen inside it) bounds it instead.
		w.thread, w.start, w.end = c.recs[j].Thread, c.recs[j].TSC, c.recs[j].TSC
		if j+1 < len(c.recs) {
			w.end = c.recs[j+1].TSC
		} else if c.tsc > w.end {
			w.end = c.tsc
		}
		// Keep the closed queue in window order: a window behind the
		// cursor can only be pre-populated by a gap, so insertion is
		// almost always at the end.
		k := len(c.closed)
		for k > 0 && c.closed[k-1].rec > j {
			k--
		}
		c.closed = append(c.closed, stWindow{})
		copy(c.closed[k+1:], c.closed[k:])
		c.closed[k] = w
	}
	clear(c.open[len(keep):])
	c.open = keep
}

// materialize copies a window's items out of the log into a fresh slice.
func (c *coreStitch) materialize(w *stWindow) []source.Item {
	if w.n == 0 {
		return nil
	}
	return c.appendItems(make([]source.Item, 0, w.n), w)
}

// appendItems appends a window's items, in order, to dst.
func (c *coreStitch) appendItems(dst []source.Item, w *stWindow) []source.Item {
	for _, sp := range w.spans {
		if sp.syn != nil {
			dst = append(dst, *sp.syn)
		} else {
			dst = c.log.appendRange(dst, sp.lo, sp.hi)
		}
	}
	return dst
}

// recycle releases the log blocks below the lowest index still referenced
// by the pending items or by an open or closed window.
func (c *coreStitch) recycle() {
	low := c.next
	for _, ws := range [2][]stWindow{c.open, c.closed} {
		for i := range ws {
			for _, sp := range ws[i].spans {
				if sp.syn == nil && sp.lo < low {
					low = sp.lo
				}
			}
		}
	}
	c.log.release(low)
}

// clockSkewSlack is how far (in cycles) a thread's window may reach back
// into its previous window before the overlap is reported as clock skew.
// Honest runs still show sub-hundred-cycle overlaps at migration
// boundaries — switch timestamps carry scheduler jitter (vm
// SwitchJitterCycles, the §7.2 inconsistency) — so the threshold sits an
// order of magnitude above jitter scale and three below the timeslice.
const clockSkewSlack = 1024

// emitKey orders windows globally: start time, then core, then window
// index — the batch stable sort's tie-breaking.
type emitKey struct {
	start uint64
	core  int
	rec   int
}

func keyLess(a, b emitKey) bool {
	if a.start != b.start {
		return a.start < b.start
	}
	if a.core != b.core {
		return a.core < b.core
	}
	return a.rec < b.rec
}

// frontier returns the lower bound on any window this core can still emit
// beyond its closed queue, and whether such a window is possible at all.
func (s *StreamStitcher) frontier(core int) (emitKey, bool) {
	c := &s.cores[core]
	if s.finished {
		return emitKey{}, false
	}
	if len(c.recs) == 0 {
		// The first record, when it arrives, will carry TSC >= mark.
		return emitKey{start: c.mark, core: core}, true
	}
	// The earliest window that can still emit is the first thread-owned
	// window at or after the cursor: idle-owned windows only ever drop
	// their items, so an idle core must not gate global emission.
	if c.fo < c.wi {
		c.fo = c.wi
	}
	for c.fo < len(c.recs) && c.recs[c.fo].Thread < 0 {
		c.fo++
	}
	if c.fo < len(c.recs) {
		return emitKey{start: c.recs[c.fo].TSC, core: core, rec: c.fo}, true
	}
	// Every known window from the cursor on is idle-owned; the next
	// emittable window starts no earlier than the newest record and the
	// watermark (per-core sideband is time-monotone).
	lo := c.mark
	if t := c.recs[len(c.recs)-1].TSC; t > lo {
		lo = t
	}
	return emitKey{start: lo, core: core, rec: len(c.recs)}, true
}

// emitted is a window popped for emission, with its core.
type emitted struct {
	core int
	w    stWindow
}

// emit pops all globally-safe windows off the closed queues and copies
// their items out of the core logs into exact-size per-thread delta
// streams. Returns only threads that received items, in thread order.
// Callers carve first.
func (s *StreamStitcher) emit(final bool) []ThreadStream {
	s.popped = s.popped[:0]
	for {
		best := -1
		var bestKey emitKey
		for i := range s.cores {
			if len(s.cores[i].closed) == 0 {
				continue
			}
			k := emitKey{start: s.cores[i].closed[0].start, core: i, rec: s.cores[i].closed[0].rec}
			if best < 0 || keyLess(k, bestKey) {
				best, bestKey = i, k
			}
		}
		if best < 0 {
			break
		}
		if !final {
			safe := true
			for i := range s.cores {
				fk, ok := s.frontier(i)
				if ok && !keyLess(bestKey, fk) {
					safe = false
					break
				}
			}
			if !safe {
				break
			}
		}
		c := &s.cores[best]
		w := c.closed[0]
		c.closed[0] = stWindow{}
		c.closed = c.closed[1:]
		if prev, ok := s.emittedEnd[w.thread]; ok && w.start+clockSkewSlack < prev {
			s.ledger.Add(fault.Entry{
				Reason: fault.ReasonClockSkew, Thread: w.thread, Core: best,
				Detail: fmt.Sprintf("window [%d,%d) overlaps previous window ending %d", w.start, w.end, prev),
			})
		}
		if w.end > s.emittedEnd[w.thread] {
			s.emittedEnd[w.thread] = w.end
		}
		s.popped = append(s.popped, emitted{core: best, w: w})
	}
	var out []ThreadStream
	if len(s.popped) > 0 {
		out = s.copyOut()
	}
	for i := range s.cores {
		s.cores[i].recycle()
	}
	return out
}

// copyOut builds one exact-size delta per thread from the popped windows,
// in pop order — the second and last copy of each item.
func (s *StreamStitcher) copyOut() []ThreadStream {
	sizes := make([]int, s.maxThread+1)
	for i := range s.popped {
		sizes[s.popped[i].w.thread] += s.popped[i].w.n
	}
	idx := make([]int, len(sizes))
	var out []ThreadStream
	for t, n := range sizes {
		if n > 0 {
			idx[t] = len(out)
			out = append(out, ThreadStream{Thread: t, Items: make([]source.Item, 0, n)})
		}
	}
	for i := range s.popped {
		e := &s.popped[i]
		d := &out[idx[e.w.thread]]
		d.Items = s.cores[e.core].appendItems(d.Items, &e.w)
		e.w = stWindow{}
	}
	return out
}

// safeCarve runs one core's carve with panic containment: a carve that
// crashes (hostile timestamps driving the cursor somewhere impossible)
// quarantines that core's pending items instead of killing the process —
// the other cores' threads still analyse. It runs inside the per-core
// fan-out goroutines, where an escaped panic would be fatal.
func (s *StreamStitcher) safeCarve(i int, final bool) {
	c := &s.cores[i]
	from := c.next
	defer func() {
		if r := recover(); r != nil {
			var bytes uint64
			for g := from; g < c.log.end; g++ {
				if it := c.log.at(g); !it.Gap {
					bytes += uint64(it.Packet.WireLen)
				}
			}
			s.ledger.Add(fault.Entry{
				Reason: fault.ReasonStageCrash, Thread: -1, Core: i,
				Items: c.log.end - from, Bytes: bytes,
				Detail: fmt.Sprintf("carve: %v", r),
			})
			c.next = c.log.end
		}
	}()
	s.cores[i].carve(final)
}

// Drain emits every thread delta that is final under the current
// watermarks. Call after feeding a batch of chunks/sideband and advancing
// watermarks.
func (s *StreamStitcher) Drain() []ThreadStream {
	if s.finished {
		return nil
	}
	for i := range s.cores {
		s.safeCarve(i, false)
	}
	return s.emit(false)
}

// Finish declares the input complete and returns the remaining deltas.
// After Finish the stitcher rejects further feeding.
func (s *StreamStitcher) Finish() []ThreadStream {
	return s.FinishWorkers(1)
}

// FinishWorkers is Finish with the final per-core carve fanned out on up
// to workers goroutines (cores are independent, mirroring the batch
// split's parallel carve). The emitted deltas are identical for any
// worker count.
func (s *StreamStitcher) FinishWorkers(workers int) []ThreadStream {
	if s.finished {
		return nil
	}
	conc.ParallelFor(conc.Workers(workers), len(s.cores), func(i int) {
		s.safeCarve(i, true)
	})
	s.finished = true
	return s.emit(true)
}
