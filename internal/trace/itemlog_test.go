package trace

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"jportal/internal/pt"
	"jportal/internal/vm"
)

// blockFixture builds two cores whose traces run to several log blocks.
// Core 0 switches threads every 1000 cycles (three items per 10 cycles, so
// ~300 items a window and windows that straddle block boundaries) and
// carries a loss episode, interleaved with packets, that spans four
// windows and sits across the first block boundary, plus a short gap that
// fits one window. Core 1 runs a slower, partly idle schedule.
func blockFixture() ([]pt.CoreTrace, []vm.SwitchRecord) {
	var c0 []pt.Item
	clock, ip := uint64(0), uint64(0)
	for len(c0) < 3*logBlockItems {
		if len(c0) >= logBlockItems-40 && len(c0) < logBlockItems-36 {
			// Four windows' worth of lost trace around the boundary.
			c0 = append(c0, pt.Item{Gap: true, GapStart: clock, GapEnd: clock + 3500, LostBytes: 7001})
			clock += 3500
		}
		if len(c0) >= 2*logBlockItems+100 && len(c0) < 2*logBlockItems+104 {
			c0 = append(c0, pt.Item{Gap: true, GapStart: clock + 1, GapEnd: clock + 5, LostBytes: 12})
			clock += 5
		}
		clock += 10
		ip++
		c0 = append(c0, tscItem(clock), tipItem(ip), tipItem(ip+1<<20))
	}
	var c1 []pt.Item
	clock = 3
	for len(c1) < 2*logBlockItems {
		clock += 25
		ip++
		c1 = append(c1, tscItem(clock), tipItem(ip))
	}
	cores := []pt.CoreTrace{{Core: 0, Items: c0}, {Core: 1, Items: c1}}

	var sideband []vm.SwitchRecord
	for i, tsc := 0, uint64(0); tsc < 20_000; i, tsc = i+1, tsc+1000 {
		sideband = append(sideband, vm.SwitchRecord{Core: 0, TSC: tsc, Thread: i % 3})
	}
	for i, tsc := 0, uint64(0); tsc < 30_000; i, tsc = i+1, tsc+2300 {
		th := 3 + i%2
		if i%4 == 3 {
			th = -1
		}
		sideband = append(sideband, vm.SwitchRecord{Core: 1, TSC: tsc, Thread: th})
	}
	sortSideband(sideband)
	return cores, sideband
}

// TestStreamGapAcrossWindowsAndBlocks: a loss episode split across four
// windows — pieces that become synthetic items — next to windows whose
// log spans cross block boundaries must stitch exactly as the batch split
// does, under every chunking and every watermark schedule.
func TestStreamGapAcrossWindowsAndBlocks(t *testing.T) {
	cores, sideband := blockFixture()
	want := SplitByThread(cores, sideband, pt.Traits())
	// The fixture really splits the episode: at least three thread
	// streams receive a piece of it.
	split := 0
	for _, st := range want {
		for _, it := range st.Items {
			if it.Gap && it.LostBytes != 7001 && it.LostBytes != 12 {
				split++
				break
			}
		}
	}
	if split < 3 {
		t.Fatalf("loss episode reached %d threads, want >= 3", split)
	}
	schedules := []struct{ sbBatch, markEvery int }{
		{1, 1},       // record by record, marks every step
		{3, 2},       // batched sideband, lagging marks
		{1 << 20, 1}, // all sideband up front
		{1, 0},       // no marks: everything carves at Finish
	}
	for _, chunk := range []int{1, 7, 500, logBlockItems - 1, logBlockItems, logBlockItems + 1, 1 << 20} {
		for _, sc := range schedules {
			got := newFeeder(t, cores, sideband, chunk, sc.sbBatch, sc.markEvery).finish(2)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("chunk=%d schedule=%+v: streaming diverges from batch", chunk, sc)
			}
		}
	}
}

// TestStreamRecyclesLogBlocks: once a Drain has emitted everything it can,
// a core's log keeps at most the one block its open window still points
// into, and BufferedItems counts exactly the pending and windowed items it
// always counted.
func TestStreamRecyclesLogBlocks(t *testing.T) {
	var items []pt.Item
	clock := uint64(0)
	for len(items) < 5*logBlockItems {
		clock++
		items = append(items, tscItem(clock), tipItem(clock), tipItem(clock+1))
	}
	n := len(items)
	tail := []pt.Item{tscItem(1_000_000), tipItem(7)} // the idle window's items
	s := NewStreamStitcher(1, pt.Traits())
	s.AddSideband([]vm.SwitchRecord{{Core: 0, TSC: 0, Thread: 0}, {Core: 0, TSC: 999_999, Thread: -1}})
	s.Watermark(0, math.MaxUint64)
	if err := s.Feed(0, append(append([]pt.Item(nil), items...), tail...)); err != nil {
		t.Fatal(err)
	}
	if got := s.BufferedItems(); got != n+2 {
		t.Fatalf("BufferedItems before Drain = %d, want %d (all pending)", got, n+2)
	}
	c := &s.cores[0]
	if len(c.log.blocks) < 5 {
		t.Fatalf("log holds %d blocks for %d items", len(c.log.blocks), n+2)
	}
	d := s.Drain()
	if len(d) != 1 || d[0].Thread != 0 || len(d[0].Items) != n || cap(d[0].Items) != n {
		t.Fatalf("Drain did not emit thread 0's window as one exact-size delta: %d deltas", len(d))
	}
	if !reflect.DeepEqual(d[0].Items, items) {
		t.Fatal("emitted delta differs from the fed items")
	}
	// Only the idle cursor window is left: it holds the tail, and the
	// block the tail lives in is the one block still live.
	if got := s.BufferedItems(); got != 2 {
		t.Fatalf("BufferedItems after Drain = %d, want 2", got)
	}
	if len(c.log.blocks) > 1 || len(c.log.spare) > logSpareBlocks {
		t.Fatalf("after Drain: %d live blocks, %d spare", len(c.log.blocks), len(c.log.spare))
	}
	// Recycled blocks serve the next feed.
	spare := len(c.log.spare)
	if err := s.Feed(0, items[:2*logBlockItems]); err != nil {
		t.Fatal(err)
	}
	if len(c.log.spare) >= spare {
		t.Fatalf("feeding did not reuse a spare block (%d spare before, %d after)", spare, len(c.log.spare))
	}
	if got := s.BufferedItems(); got != 2+2*logBlockItems {
		t.Fatalf("BufferedItems after refeed = %d, want %d", got, 2+2*logBlockItems)
	}
	// Everything after the idle switch belongs to the idle window: Finish
	// drops it, exactly as the batch split does.
	if rest := s.Finish(); len(rest) != 0 {
		t.Fatalf("Finish emitted %d deltas from an idle window", len(rest))
	}
}

// TestStreamStateRoundTripAcrossBlocks checkpoints a stitcher mid-window —
// with items pending past the watermark, windows closed but not yet safe
// to emit, and an open window whose log span crosses a block boundary —
// through gob, restores it into a fresh stitcher, and requires the resumed
// run to stitch exactly what the uninterrupted run and the batch split
// stitch.
func TestStreamStateRoundTripAcrossBlocks(t *testing.T) {
	cores, sideband := blockFixture()
	want := SplitByThread(cores, sideband, pt.Traits())

	// Core 0 knows its schedule below TSC 7000 and has traced past it;
	// core 1 knows only its first window, which holds back every core-0
	// window starting after it.
	const mark = 7000
	var early, late []vm.SwitchRecord
	for i, r := range sideband {
		if (r.Core == 0 && r.TSC < mark) || (r.Core == 1 && i == 0) {
			early = append(early, r)
		} else {
			late = append(late, r)
		}
	}
	cut := logBlockItems + 330
	s := NewStreamStitcher(len(cores), pt.Traits())
	s.AddSideband(early)
	s.Watermark(0, mark)
	if err := s.Feed(0, cores[0].Items[:cut]); err != nil {
		t.Fatal(err)
	}
	deltas := [][]ThreadStream{s.Drain()}

	c := &s.cores[0]
	straddles := false
	for _, w := range c.open {
		for _, sp := range w.spans {
			straddles = straddles || (sp.syn == nil && sp.lo/logBlockItems != (sp.hi-1)/logBlockItems)
		}
	}
	if c.next == c.log.end || len(c.closed) == 0 || !straddles {
		t.Fatalf("not mid-window across a block: pending %d, closed %d, open window straddles %v",
			c.log.end-c.next, len(c.closed), straddles)
	}

	back := gobRoundTrip(t, s.ExportState())
	restored := NewStreamStitcher(len(cores), pt.Traits())
	if err := restored.RestoreState(back); err != nil {
		t.Fatal(err)
	}
	if restored.BufferedItems() != s.BufferedItems() {
		t.Fatalf("restored BufferedItems = %d, want %d", restored.BufferedItems(), s.BufferedItems())
	}
	// Compared in wire form: gob does not tell an empty slice from nil.
	if !reflect.DeepEqual(gobRoundTrip(t, restored.ExportState()), back) {
		t.Fatal("re-exporting the restored stitcher changes its state")
	}

	// Continue the uninterrupted and the restored stitcher identically.
	finish := func(s *StreamStitcher) []ThreadStream {
		out := append([][]ThreadStream(nil), deltas...)
		s.AddSideband(late)
		s.Watermark(0, math.MaxUint64)
		s.Watermark(1, math.MaxUint64)
		if err := s.Feed(0, cores[0].Items[cut:]); err != nil {
			t.Fatal(err)
		}
		if err := s.Feed(1, cores[1].Items); err != nil {
			t.Fatal(err)
		}
		out = append(out, s.Drain(), s.Finish())
		return streamsOf(s.NumThreads(), out)
	}
	if got := finish(s); !reflect.DeepEqual(got, want) {
		t.Fatal("uninterrupted run diverges from batch")
	}
	if got := finish(restored); !reflect.DeepEqual(got, want) {
		t.Fatal("restored run diverges from batch")
	}
}

// gobRoundTrip passes a stitcher state through its checkpoint wire form.
func gobRoundTrip(t *testing.T, st StitcherState) StitcherState {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	var back StitcherState
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	return back
}
