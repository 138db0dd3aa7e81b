package trace

import (
	"fmt"
	"sort"

	"jportal/internal/source"
	"jportal/internal/vm"
)

// StitcherWindow is the checkpointable form of a closed scheduling window
// awaiting cross-core emission.
type StitcherWindow struct {
	Thread int
	Start  uint64
	End    uint64
	Rec    int
	Items  []source.Item
}

// StitcherCoreState is one core's checkpointable carve state.
type StitcherCoreState struct {
	Recs    []vm.SwitchRecord
	Mark    uint64
	Pending []source.Item
	WI      int
	TSC     uint64
	Open    map[int][]source.Item
	Closed  []StitcherWindow
	FO      int
}

// StitcherState is the stitcher's complete checkpointable state (DESIGN.md
// §11): per-core carve cursors and buffered items, plus the cross-core
// collapse and emission frontiers. Only valid before Finish.
type StitcherState struct {
	NCores     int
	MaxThread  int
	Cores      []StitcherCoreState
	LastThread []int
	LastTSC    []uint64
	EmittedEnd map[int]uint64
}

// ExportState snapshots the stitcher for a checkpoint. It panics after
// Finish: a finished stitcher has emitted everything and is not resumable.
func (s *StreamStitcher) ExportState() StitcherState {
	if s.finished {
		panic("trace: StreamStitcher.ExportState after Finish")
	}
	st := StitcherState{
		NCores:     len(s.cores),
		MaxThread:  s.maxThread,
		Cores:      make([]StitcherCoreState, len(s.cores)),
		LastThread: append([]int(nil), s.lastThread...),
		LastTSC:    append([]uint64(nil), s.lastTSC...),
		EmittedEnd: make(map[int]uint64, len(s.emittedEnd)),
	}
	for t, e := range s.emittedEnd {
		st.EmittedEnd[t] = e
	}
	for i := range s.cores {
		c := &s.cores[i]
		cs := StitcherCoreState{
			Recs:    append([]vm.SwitchRecord(nil), c.recs...),
			Mark:    c.mark,
			Pending: c.log.appendRange(nil, c.next, c.log.end),
			WI:      c.wi,
			TSC:     c.tsc,
			Open:    make(map[int][]source.Item, len(c.open)),
			Closed:  make([]StitcherWindow, len(c.closed)),
			FO:      c.fo,
		}
		for j := range c.open {
			cs.Open[c.open[j].rec] = c.materialize(&c.open[j])
		}
		for j := range c.closed {
			w := &c.closed[j]
			cs.Closed[j] = StitcherWindow{
				Thread: w.thread, Start: w.start, End: w.end, Rec: w.rec,
				Items: c.materialize(w),
			}
		}
		st.Cores[i] = cs
	}
	return st
}

// RestoreState rebuilds a freshly-constructed stitcher from a checkpointed
// state. The core count must match the checkpointing run's; nil maps from
// the wire (gob encodes empty maps as nil) are normalised back to empty.
func (s *StreamStitcher) RestoreState(st StitcherState) error {
	if st.NCores != len(s.cores) {
		return fmt.Errorf("trace: checkpoint has %d cores, stitcher has %d", st.NCores, len(s.cores))
	}
	if len(st.Cores) != st.NCores || len(st.LastThread) != st.NCores || len(st.LastTSC) != st.NCores {
		return fmt.Errorf("trace: checkpoint core arrays inconsistent with %d cores", st.NCores)
	}
	s.maxThread = st.MaxThread
	s.finished = false
	s.lastThread = append([]int(nil), st.LastThread...)
	s.lastTSC = append([]uint64(nil), st.LastTSC...)
	s.emittedEnd = make(map[int]uint64, len(st.EmittedEnd))
	for t, e := range st.EmittedEnd {
		s.emittedEnd[t] = e
	}
	for i := range s.cores {
		cs := &st.Cores[i]
		c := &s.cores[i]
		c.recs = append([]vm.SwitchRecord(nil), cs.Recs...)
		c.mark = cs.Mark
		c.wi = cs.WI
		c.tsc = cs.TSC
		c.fo = cs.FO
		// Re-log the materialised windows, then the pending items: the log
		// is only storage, so its order need not be export order — a
		// window just becomes one span over its re-logged items.
		c.log = itemLog{}
		c.closed = make([]stWindow, len(cs.Closed))
		for j, w := range cs.Closed {
			c.closed[j] = stWindow{thread: w.Thread, start: w.Start, end: w.End, rec: w.Rec}
			c.relog(&c.closed[j], w.Items)
		}
		keys := make([]int, 0, len(cs.Open))
		for j := range cs.Open {
			keys = append(keys, j)
		}
		sort.Ints(keys)
		c.open = make([]stWindow, len(keys))
		for k, j := range keys {
			c.open[k] = stWindow{rec: j}
			c.relog(&c.open[k], cs.Open[j])
		}
		c.next = c.log.end
		c.log.append(cs.Pending)
	}
	return nil
}

// relog appends items to the log as window w's only span.
func (c *coreStitch) relog(w *stWindow, items []source.Item) {
	if len(items) == 0 {
		return
	}
	lo := c.log.end
	c.log.append(items)
	w.add(span{lo: lo, hi: c.log.end})
}
