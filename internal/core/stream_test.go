package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"jportal/internal/bytecode"
	"jportal/internal/fault"
	"jportal/internal/meta"
	"jportal/internal/source"
)

// TestTokenizerChunkInvariant feeds the mixed event fixture (templates,
// TNT pairing, a gap, a JIT range, a desync) through the streaming
// tokenizer at every possible split point, and one event at a time: the
// segments and stats must match the batch call exactly. The interesting
// cuts are the ones that separate a conditional dispatch from its TNT and
// a gap from the segment it opens.
func TestTokenizerChunkInvariant(t *testing.T) {
	events, prog, _ := mkEvents()
	wantSegs, wantSt := TokenizeEvents(prog, events)

	check := func(name string, feed func(tk *tokenizer) []*Segment) {
		tk := newTokenizer(prog)
		var segs []*Segment
		segs = append(segs, feed(tk)...)
		segs = append(segs, tk.finish()...)
		if !reflect.DeepEqual(segs, wantSegs) {
			t.Errorf("%s: segments diverge from batch", name)
		}
		if tk.st != *wantSt {
			t.Errorf("%s: stats = %+v, want %+v", name, tk.st, *wantSt)
		}
	}

	for cut := 0; cut <= len(events); cut++ {
		check("cut", func(tk *tokenizer) []*Segment {
			tk.feed(events[:cut])
			// take's harvest buffer is reused across feeds, so the result
			// must be copied before feeding the rest.
			segs := append([]*Segment(nil), tk.take()...)
			tk.feed(events[cut:])
			return append(segs, tk.take()...)
		})
	}
	check("one-at-a-time", func(tk *tokenizer) []*Segment {
		var segs []*Segment
		for i := range events {
			tk.feed(events[i : i+1])
			segs = append(segs, tk.take()...)
		}
		return segs
	})
}

// TestThreadAnalyzerFinishIdempotent: Finish is the terminal state; a
// second call returns the same result and Feed panics.
func TestThreadAnalyzerFinishIdempotent(t *testing.T) {
	prog, m := fig2Matcher(t)
	p := &Pipeline{Prog: prog, Matcher: m, Cfg: DefaultPipelineConfig()}
	a := p.NewThreadAnalyzer(0, nil)
	a.Feed(nil)
	res := a.Finish()
	if res2 := a.Finish(); res2 != res {
		t.Fatal("second Finish returned a different result")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Feed after Finish did not panic")
		}
	}()
	a.Feed(nil)
}

func TestPipelineConfigValidate(t *testing.T) {
	if err := DefaultPipelineConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*PipelineConfig){
		func(c *PipelineConfig) { c.Workers = -1 },
		func(c *PipelineConfig) { c.MaxPendingSegments = -4 },
		func(c *PipelineConfig) { c.Recovery.AnchorLen = -1 },
		func(c *PipelineConfig) { c.Recovery.TopN = -2 },
		func(c *PipelineConfig) { c.Recovery.TimeBudgetSlack = -0.5 },
		func(c *PipelineConfig) { c.Recovery.TimeBudgetSlack = math.NaN() },
	}
	for i, mut := range bad {
		c := DefaultPipelineConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// finishWith runs a fresh analyzer's Finish over pre-tokenized segments
// (bypassing decode) under rcfg.
func finishWith(m *Matcher, prog *bytecode.Program, rcfg RecoveryConfig, segs []*Segment) *ThreadResult {
	pc := DefaultPipelineConfig()
	pc.Recovery = rcfg
	a := (&Pipeline{Prog: prog, Matcher: m, Cfg: pc}).NewThreadAnalyzer(0, nil)
	a.pend = append([]*Segment(nil), segs...) // reconstruction clears pend's slots
	return a.Finish()
}

// TestFinishRecoveryMatchesReference: whether Finish builds the §5
// recoverer or skips it (no hole, or recovery disabled), its result is the
// one an explicit NewRecoverer + RecoverHole pass over the same flows
// gives. A skipped thread must also leave the segments' abstraction caches
// unbuilt — the recoverer really was not constructed.
func TestFinishRecoveryMatchesReference(t *testing.T) {
	prog, m := fig2Matcher(t)
	iter := len(fig2ElseTrace())
	gapAt := uint64(3 * iter * 10)
	gapDur := uint64(4 * iter * 10)
	threeSegs := func() []*Segment {
		return []*Segment{
			{Tokens: repTrace(3, 0)},
			{Tokens: repTrace(3, gapAt+gapDur), GapBefore: &GapInfo{Start: gapAt, End: gapAt + gapDur, LostBytes: 300}},
			{Tokens: repTrace(12, 100_000), GapBefore: &GapInfo{Desync: true, Start: 50_000, End: 50_000}},
		}
	}
	disabled := DefaultRecoveryConfig()
	disabled.Disable = true
	cases := []struct {
		name    string
		rcfg    RecoveryConfig
		segs    []*Segment
		skipped bool
	}{
		{"no-hole", DefaultRecoveryConfig(), []*Segment{{Tokens: repTrace(5, 0)}}, true},
		{"disabled", disabled, threeSegs(), true},
		{"holes", DefaultRecoveryConfig(), threeSegs(), false},
	}
	for _, tc := range cases {
		res := finishWith(m, prog, tc.rcfg, tc.segs)
		for i, s := range tc.segs {
			if built := s.absIdx1 != nil; built == tc.skipped {
				t.Errorf("%s: segment %d abstraction built = %v", tc.name, i, built)
			}
		}

		ref := &ThreadResult{Flows: res.Flows, Fills: make([]Fill, len(res.Flows))}
		rec := NewRecoverer(m, ref.Flows, tc.rcfg)
		for i := 0; i+1 < len(ref.Flows); i++ {
			ref.Fills[i] = rec.RecoverHole(i)
		}
		mergeSteps(ref)
		if !reflect.DeepEqual(res.Fills, ref.Fills) || !reflect.DeepEqual(res.Steps, ref.Steps) ||
			res.DecodedSteps != ref.DecodedSteps || res.RecoveredSteps != ref.RecoveredSteps {
			t.Errorf("%s: Finish diverges from the reference (decoded %d/%d, recovered %d/%d)",
				tc.name, res.DecodedSteps, ref.DecodedSteps, res.RecoveredSteps, ref.RecoveredSteps)
		}
		if !tc.skipped && res.RecoveredSteps == 0 {
			t.Errorf("%s: hole not filled", tc.name)
		}
	}
}

// TestFinishCancelledSkipsRecoveryOnHoleFreeThread: a deadline that lands
// after reconstruction still marks a single-flow thread timed out and
// records the skipped recovery, although such a thread has no hole to fill.
func TestFinishCancelledSkipsRecoveryOnHoleFreeThread(t *testing.T) {
	prog, m := fig2Matcher(t)
	a := (&Pipeline{Prog: prog, Matcher: m, Cfg: DefaultPipelineConfig()}).NewThreadAnalyzer(3, nil)
	led := fault.NewLedger(nil)
	a.SetLedger(led)
	a.pend = []*Segment{{Tokens: repTrace(5, 0)}}
	a.reconstruct()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := a.FinishContext(ctx)
	if !a.TimedOut() {
		t.Error("cancelled Finish did not mark the thread timed out")
	}
	if len(res.Flows) != 1 || res.DecodedSteps == 0 {
		t.Errorf("flows %d, decoded steps %d: reconstruction before the deadline lost", len(res.Flows), res.DecodedSteps)
	}
	want := fault.Entry{Reason: fault.ReasonDeadline, Thread: 3, Core: -1, Count: 1, Detail: "recovery skipped"}
	if got := led.Entries(); len(got) != 1 || got[0] != want {
		t.Errorf("ledger = %+v, want [%+v]", got, want)
	}
}

// crashSource is a trace source whose decoder turns every packet into one
// interpreter dispatch and panics on a packet addressed to poison — a
// decoder crash at a known item.
type crashSource struct {
	source.Source
	poison uint64
}

func (s crashSource) NewDecoder(snap *meta.Snapshot) source.Decoder {
	return &crashDecoder{Decoder: s.Source.NewDecoder(snap), poison: s.poison}
}

type crashDecoder struct {
	source.Decoder
	poison uint64
	out    []source.Event
}

func (d *crashDecoder) DecodeChunk(items []source.Item) []source.Event {
	d.out = d.out[:0]
	for _, it := range items {
		if it.Packet.IP == d.poison {
			panic("poisoned packet")
		}
		d.out = append(d.out, source.Event{Kind: source.EvTemplate, Op: bytecode.ILOAD})
	}
	return d.out
}

func (d *crashDecoder) Flush() []source.Event { return nil }

// TestDecodePanicQuarantinesOnlyItsBatch: one delta spanning several decode
// batches, with a decoder crash in the third. The ledger records exactly
// that batch — its items and bytes — and every other batch's tokens
// survive the crash, before and after it.
func TestDecodePanicQuarantinesOnlyItsBatch(t *testing.T) {
	prog, m := fig2Matcher(t)
	const n = 5*decodeBatch + 100
	bad := 2*decodeBatch + 17
	items := make([]source.Item, n)
	for i := range items {
		items[i].Packet = source.Packet{IP: uint64(i + 1), WireLen: uint8(1 + i%5)}
	}
	pc := DefaultPipelineConfig()
	pc.Source = crashSource{Source: source.Default(), poison: items[bad].Packet.IP}
	led := fault.NewLedger(nil)
	a := (&Pipeline{Prog: prog, Matcher: m, Cfg: pc}).NewThreadAnalyzer(0, nil)
	a.SetLedger(led)
	a.Feed(items)
	res := a.Finish()

	var crashes []fault.Entry
	for _, e := range led.Entries() {
		if e.Reason == fault.ReasonStageCrash {
			crashes = append(crashes, e)
		}
	}
	batch := items[2*decodeBatch : 3*decodeBatch]
	if len(crashes) != 1 || crashes[0].Items != decodeBatch || crashes[0].Bytes != chunkBytes(batch) {
		t.Fatalf("crash entries %+v, want one of %d items, %d bytes", crashes, decodeBatch, chunkBytes(batch))
	}
	if got, want := res.Decode.Tokens, n-decodeBatch; got != want {
		t.Fatalf("tokens = %d, want %d: only the crashed batch may be lost", got, want)
	}
}
