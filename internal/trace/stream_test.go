package trace

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"jportal/internal/pt"
	"jportal/internal/vm"
)

// streamsOf reassembles a stitcher's emitted deltas into full per-thread
// streams shaped like SplitByThread's output.
func streamsOf(nthreads int, deltas [][]ThreadStream) []ThreadStream {
	streams := make([]ThreadStream, nthreads)
	for i := range streams {
		streams[i].Thread = i
	}
	for _, batch := range deltas {
		for _, d := range batch {
			streams[d.Thread].Items = append(streams[d.Thread].Items, d.Items...)
		}
	}
	return streams
}

// runStream drives a StreamStitcher over the fixture with the given chunk
// size: sideband is delivered record by record in global order, per-core
// watermarks track the next undelivered record, and every core's trace is
// fed in chunks of at most chunk items with a Drain after each step.
func runStream(t *testing.T, cores []pt.CoreTrace, sideband []vm.SwitchRecord, chunk, workers int) []ThreadStream {
	t.Helper()
	d := newFeeder(t, cores, sideband, chunk, 1, 1)
	for d.step() {
	}
	return d.finish(workers)
}

// feeder steps a StreamStitcher through a fixture under one delivery
// schedule: each step delivers sbBatch sideband records (global order),
// advances every core's watermark to the TSC of its next undelivered
// record on every markEvery-th step (never, when markEvery is 0: then
// everything carves at Finish), feeds each core at most chunk items, and
// drains.
type feeder struct {
	t         *testing.T
	s         *StreamStitcher
	cores     []pt.CoreTrace
	sideband  []vm.SwitchRecord
	chunk     int
	sbBatch   int
	markEvery int
	steps     int
	sb        int
	pos       []int
	deltas    [][]ThreadStream
}

func newFeeder(t *testing.T, cores []pt.CoreTrace, sideband []vm.SwitchRecord, chunk, sbBatch, markEvery int) *feeder {
	return &feeder{
		t: t, s: NewStreamStitcher(len(cores), pt.Traits()), cores: cores, sideband: sideband,
		chunk: chunk, sbBatch: sbBatch, markEvery: markEvery, pos: make([]int, len(cores)),
	}
}

// step runs one delivery step and reports whether it delivered anything.
func (d *feeder) step() bool {
	d.t.Helper()
	progressed := false
	if d.sb < len(d.sideband) {
		n := min(d.sbBatch, len(d.sideband)-d.sb)
		d.s.AddSideband(d.sideband[d.sb : d.sb+n])
		d.sb += n
		progressed = true
	}
	d.steps++
	if d.markEvery > 0 && d.steps%d.markEvery == 0 {
		// Watermark for a core = TSC of its next undelivered record, or
		// "no more records" once the global list is exhausted.
		next := make([]uint64, len(d.cores))
		for i := range next {
			next[i] = math.MaxUint64
		}
		for _, r := range d.sideband[d.sb:] {
			if r.Core >= 0 && r.Core < len(d.cores) && next[r.Core] == math.MaxUint64 {
				next[r.Core] = r.TSC
			}
		}
		for i, w := range next {
			d.s.Watermark(i, w)
		}
	}
	for ci := range d.cores {
		if d.pos[ci] < len(d.cores[ci].Items) {
			end := min(d.pos[ci]+d.chunk, len(d.cores[ci].Items))
			if err := d.s.Feed(d.cores[ci].Core, d.cores[ci].Items[d.pos[ci]:end]); err != nil {
				d.t.Fatalf("Feed: %v", err)
			}
			d.pos[ci] = end
			progressed = true
		}
	}
	if out := d.s.Drain(); out != nil {
		d.deltas = append(d.deltas, out)
	}
	return progressed
}

// finish runs the remaining steps, finishes the stitcher and returns the
// reassembled per-thread streams.
func (d *feeder) finish(workers int) []ThreadStream {
	for d.step() {
	}
	d.deltas = append(d.deltas, d.s.FinishWorkers(workers))
	return streamsOf(d.s.NumThreads(), d.deltas)
}

// TestStreamMatchesBatchFixture sweeps chunk sizes over the migration/gap
// fixture from the parallel test and demands byte-identical streams.
func TestStreamMatchesBatchFixture(t *testing.T) {
	gap := pt.Item{Gap: true, GapStart: 150, GapEnd: 320, LostBytes: 1700}
	cores := []pt.CoreTrace{
		{Core: 0, Items: []pt.Item{
			tscItem(0), tipItem(1), tipItem(2),
			tscItem(100), tipItem(3), gap,
			tscItem(330), tipItem(4),
		}},
		{Core: 1, Items: []pt.Item{
			tscItem(50), tipItem(10),
			tscItem(210), tipItem(11), tipItem(12),
		}},
		{Core: 2, Items: []pt.Item{tscItem(5), tipItem(20)}},
	}
	sideband := []vm.SwitchRecord{
		{Core: 0, TSC: 0, Thread: 0},
		{Core: 2, TSC: 0, Thread: 2},
		{Core: 1, TSC: 40, Thread: 1},
		{Core: 0, TSC: 100, Thread: 1},
		{Core: 1, TSC: 200, Thread: 0},
		{Core: 0, TSC: 300, Thread: 2},
	}
	want := SplitByThread(cores, sideband, pt.Traits())
	for _, chunk := range []int{1, 2, 3, 5, 1 << 20} {
		for _, workers := range []int{1, 3} {
			got := runStream(t, cores, sideband, chunk, workers)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("chunk=%d workers=%d: streaming diverges from batch\ngot  %+v\nwant %+v",
					chunk, workers, got, want)
			}
		}
	}
}

// genFixture builds a random but collector-shaped fixture: per-core packet
// times are monotone, gaps are monotone and never overlap a preceding
// packet, and sideband records are time-monotone per core. Packet and
// sideband timestamps are independent, so switch boundaries routinely fall
// mid-stream — the §6 timestamp inconsistency in miniature.
func genFixture(r *rand.Rand, ncores, nthreads, events int) ([]pt.CoreTrace, []vm.SwitchRecord) {
	cores := make([]pt.CoreTrace, ncores)
	ip := uint64(0)
	for ci := range cores {
		cores[ci].Core = ci
		clock := uint64(r.Intn(50))
		for e := 0; e < events; e++ {
			switch p := r.Intn(10); {
			case p < 5:
				ip++
				cores[ci].Items = append(cores[ci].Items, tipItem(ip))
			case p < 8:
				clock += uint64(r.Intn(40))
				cores[ci].Items = append(cores[ci].Items, tscItem(clock))
			default:
				start := clock
				clock += uint64(1 + r.Intn(120))
				cores[ci].Items = append(cores[ci].Items, pt.Item{
					Gap: true, GapStart: start, GapEnd: clock,
					LostBytes: uint64(1 + r.Intn(4000)),
				})
			}
		}
	}
	// Per-core monotone switch times, merged into one global list.
	var sideband []vm.SwitchRecord
	for ci := 0; ci < ncores; ci++ {
		clock := uint64(0)
		n := 1 + r.Intn(8)
		for i := 0; i < n; i++ {
			sideband = append(sideband, vm.SwitchRecord{
				Core: ci, TSC: clock, Thread: r.Intn(nthreads+1) - 1,
			})
			clock += uint64(1 + r.Intn(200))
		}
	}
	sortSideband(sideband)
	return cores, sideband
}

func sortSideband(recs []vm.SwitchRecord) {
	// Stable insertion by TSC keeps per-core relative order (each core's
	// times are already monotone).
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].TSC < recs[j-1].TSC; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}

// TestStreamMatchesBatchRandom fuzzes the equivalence across fixture
// shapes, chunk sizes and watermark schedules.
func TestStreamMatchesBatchRandom(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		cores, sideband := genFixture(r, 1+r.Intn(4), 1+r.Intn(4), 10+r.Intn(120))
		want := SplitByThread(cores, sideband, pt.Traits())
		chunk := 1 + r.Intn(9)
		got := runStream(t, cores, sideband, chunk, 1+r.Intn(4))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed=%d chunk=%d: streaming diverges from batch", seed, chunk)
		}
	}
}

// TestStreamTimestampInconsistencyAcrossChunks pins the §6/§7.2 failure
// mode under chunked delivery: the sideband says thread 1 took the core at
// TSC 100, but the trace's nearest timestamp packet reads 96, so the two
// TIPs that actually ran under thread 1 are misattributed to thread 0 —
// and the streaming stitcher must misattribute them identically even when
// the chunk boundary falls between the stale TSC packet and the switch
// record's delivery.
func TestStreamTimestampInconsistencyAcrossChunks(t *testing.T) {
	cores := []pt.CoreTrace{{Core: 0, Items: []pt.Item{
		tscItem(10), tipItem(1),
		tscItem(96),            // jittered: read just before the switch
		tipItem(2), tipItem(3), // executed by thread 1, attributed to 0
		tscItem(150), tipItem(4), // firmly thread 1's window
	}}}
	sideband := []vm.SwitchRecord{
		{Core: 0, TSC: 0, Thread: 0},
		{Core: 0, TSC: 100, Thread: 1},
	}
	want := SplitByThread(cores, sideband, pt.Traits())

	// Batch sanity: the misattribution is present at all.
	var t0 []uint64
	for _, it := range want[0].Items {
		if !it.Gap && it.Packet.Kind == pt.KTIP {
			t0 = append(t0, it.Packet.IP)
		}
	}
	if !reflect.DeepEqual(t0, []uint64{1, 2, 3}) {
		t.Fatalf("batch attribution changed, thread0 tips = %v", t0)
	}

	// Deliver with the nastiest cut: items through the stale TSC packet
	// arrive, and are drained, before the switch record is even known.
	s := NewStreamStitcher(1, pt.Traits())
	s.AddSideband(sideband[:1])
	s.Watermark(0, 100) // record @100 not yet delivered: mark stays below it
	var deltas [][]ThreadStream
	if err := s.Feed(0, cores[0].Items[:4]); err != nil {
		t.Fatal(err)
	}
	if d := s.Drain(); d != nil {
		deltas = append(deltas, d)
	}
	s.AddSideband(sideband[1:])
	s.Watermark(0, math.MaxUint64)
	if err := s.Feed(0, cores[0].Items[4:]); err != nil {
		t.Fatal(err)
	}
	if d := s.Drain(); d != nil {
		deltas = append(deltas, d)
	}
	deltas = append(deltas, s.Finish())
	got := streamsOf(s.NumThreads(), deltas)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chunked delivery changed the misattribution\ngot  %+v\nwant %+v", got, want)
	}
}

// TestStreamEmitsIncrementally checks the bounded-memory property: once
// watermarks pass a window and every core's frontier moves beyond it, Drain
// emits it without waiting for Finish, and the buffered-item count drops.
func TestStreamEmitsIncrementally(t *testing.T) {
	s := NewStreamStitcher(1, pt.Traits())
	s.AddSideband([]vm.SwitchRecord{
		{Core: 0, TSC: 0, Thread: 0},
		{Core: 0, TSC: 100, Thread: 1},
	})
	s.Watermark(0, 500)
	if err := s.Feed(0, []pt.Item{tscItem(0), tipItem(1), tscItem(120), tipItem(2)}); err != nil {
		t.Fatal(err)
	}
	if n := s.BufferedItems(); n != 4 {
		t.Fatalf("buffered before drain = %d", n)
	}
	d := s.Drain()
	if len(d) != 1 || d[0].Thread != 0 || len(d[0].Items) != 2 {
		t.Fatalf("expected thread 0's closed window before Finish, got %+v", d)
	}
	// The cursor window (thread 1's) is still open and buffered.
	if n := s.BufferedItems(); n != 2 {
		t.Fatalf("buffered after drain = %d", n)
	}
	rest := s.Finish()
	if len(rest) != 1 || rest[0].Thread != 1 || len(rest[0].Items) != 2 {
		t.Fatalf("Finish remainder: %+v", rest)
	}
}

// TestStreamIdleCoreDoesNotStall: a core whose sideband is entirely idle
// (thread -1) must not gate emission on the busy cores — its windows can
// only ever be dropped.
func TestStreamIdleCoreDoesNotStall(t *testing.T) {
	s := NewStreamStitcher(2, pt.Traits())
	s.AddSideband([]vm.SwitchRecord{
		{Core: 0, TSC: 0, Thread: 0},
		{Core: 1, TSC: 0, Thread: -1},
		{Core: 0, TSC: 100, Thread: 2},
	})
	s.Watermark(0, 400)
	s.Watermark(1, 400)
	if err := s.Feed(0, []pt.Item{tscItem(0), tipItem(1), tscItem(120), tipItem(2)}); err != nil {
		t.Fatal(err)
	}
	d := s.Drain()
	if len(d) != 1 || d[0].Thread != 0 || len(d[0].Items) != 2 {
		t.Fatalf("idle core 1 stalled emission: %+v", d)
	}
}

// TestStreamFeedErrors covers the stitcher's misuse guards.
func TestStreamFeedErrors(t *testing.T) {
	s := NewStreamStitcher(2, pt.Traits())
	if err := s.Feed(2, nil); err == nil {
		t.Fatal("Feed of out-of-range core succeeded")
	}
	if err := s.Feed(-1, nil); err == nil {
		t.Fatal("Feed of negative core succeeded")
	}
	s.Finish()
	if err := s.Feed(0, nil); err == nil {
		t.Fatal("Feed after Finish succeeded")
	}
}
