package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"jportal/internal/bytecode"
	"jportal/internal/cfg"
)

// mkSeg builds a segment from tokens and reconstructs it.
func mkFlow(m *Matcher, toks []Token, gap *GapInfo) *SegmentFlow {
	seg := &Segment{Tokens: toks, GapBefore: gap}
	return m.ReconstructSegment(seg)
}

// loopTrace produces n iterations of the fun@15..18-ish control loop using
// the fig2 program's else-path body as repetitive content, each iteration
// stamped with increasing timestamps.
func repTrace(n int, startTSC uint64) []Token {
	var out []Token
	ts := startTSC
	for i := 0; i < n; i++ {
		for _, tk := range fig2ElseTrace() {
			tk.TSC = ts
			ts += 10
			out = append(out, tk)
		}
	}
	return out
}

func TestTierAbstractions(t *testing.T) {
	seg := &Segment{Tokens: fig2ElseTrace()}
	a1 := seg.Abstraction(1)
	a2 := seg.Abstraction(2)
	// Tier 1: only ireturn. Tier 2: ifeq, ifne, ireturn.
	if len(a1) != 1 || seg.Tokens[a1[0]].Op != bytecode.IRETURN {
		t.Errorf("tier-1: %v", a1)
	}
	if len(a2) != 3 {
		t.Errorf("tier-2: %v", a2)
	}
	// Tier-2 is a superset of tier-1 (Definition 5.2: tier-2 includes
	// tier-1 instructions).
	set2 := map[int32]bool{}
	for _, i := range a2 {
		set2[i] = true
	}
	for _, i := range a1 {
		if !set2[i] {
			t.Errorf("tier-1 token %d missing from tier-2", i)
		}
	}
	// AbsPrefix is monotone and consistent with the index lists.
	for i := 0; i <= len(seg.Tokens); i++ {
		if i > 0 && seg.AbsPrefix(2, i) < seg.AbsPrefix(2, i-1) {
			t.Fatal("AbsPrefix not monotone")
		}
	}
	if int(seg.AbsPrefix(2, len(seg.Tokens))) != len(a2) {
		t.Error("AbsPrefix total wrong")
	}
}

func TestSuffixLemma53(t *testing.T) {
	// Lemma 5.3-flavoured property: for random token sequences, the
	// tier-2 abstraction of a common suffix never exceeds the tier-2
	// common suffix of the abstractions (Lemma 5.4 direction), and
	// concrete-suffix ordering implies abstract-suffix ordering.
	mkTok := func(r byte) Token {
		ops := []bytecode.Opcode{
			bytecode.ILOAD, bytecode.ICONST, bytecode.IADD,
			bytecode.IFEQ, bytecode.GOTO, bytecode.INVOKESTATIC, bytecode.IRETURN,
		}
		return Token{Op: ops[int(r)%len(ops)], Method: bytecode.NoMethod}
	}
	f := func(a, b, c []byte) bool {
		ta := make([]Token, len(a))
		for i, r := range a {
			ta[i] = mkTok(r)
		}
		tb := make([]Token, len(b))
		for i, r := range b {
			tb[i] = mkTok(r)
		}
		tc := make([]Token, len(c))
		for i, r := range c {
			tc[i] = mkTok(r)
		}
		s0 := &Segment{Tokens: ta}
		s1 := &Segment{Tokens: tb}
		s2 := &Segment{Tokens: tc}
		// Concrete common suffixes.
		c1 := suffixKeys(s0.Tokens, len(ta), s1.Tokens, len(tb))
		c2 := suffixKeys(s0.Tokens, len(ta), s2.Tokens, len(tc))
		// Abstract common suffixes (tier 2).
		a1 := suffixAbs(s0, s0.AbsPrefix(2, len(ta)), s1, s1.AbsPrefix(2, len(tb)), 2)
		a2 := suffixAbs(s0, s0.AbsPrefix(2, len(ta)), s2, s2.AbsPrefix(2, len(tc)), 2)
		// Lemma 5.4: abstract suffix >= abstraction of concrete suffix.
		absOfC1 := countControl(ta[len(ta)-c1:])
		if a1 < absOfC1 {
			return false
		}
		// Theorem 5.5 contrapositive: a1 < abstraction(c2-suffix) implies
		// c1 < c2 is impossible... verify via the safe pruning direction:
		if c1 >= c2 && a1 < countControl(ta[len(ta)-c2:]) {
			return false
		}
		_ = a2
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func countControl(toks []Token) int {
	n := 0
	for i := range toks {
		if toks[i].Op.IsControl() {
			n++
		}
	}
	return n
}

func TestSearchCSFindsRepetition(t *testing.T) {
	_, m := fig2Matcher(t)
	// IS: 3 iterations then hole; CS: 6 iterations elsewhere.
	is := mkFlow(m, repTrace(3, 0), nil)
	cs := mkFlow(m, repTrace(6, 10_000), &GapInfo{Start: 360, End: 10_000, LostBytes: 500})
	r := NewRecoverer(m, []*SegmentFlow{is, cs}, DefaultRecoveryConfig())
	cands, tried, _ := r.searchCS(0)
	if tried == 0 || len(cands) == 0 {
		t.Fatalf("no candidates (tried %d)", tried)
	}
	best := cands[0]
	if best.seg != 1 {
		t.Errorf("best candidate in segment %d", best.seg)
	}
	if best.ml3 < len(fig2ElseTrace()) {
		t.Errorf("concrete suffix %d too short", best.ml3)
	}
}

func TestSearchCSNaiveAgreesOnBest(t *testing.T) {
	_, m := fig2Matcher(t)
	is := mkFlow(m, repTrace(3, 0), nil)
	cs := mkFlow(m, repTrace(6, 10_000), nil)
	r := NewRecoverer(m, []*SegmentFlow{is, cs}, DefaultRecoveryConfig())
	cands, _, _ := r.searchCS(0)
	naive, ok := r.searchCSNaive(0)
	if !ok || len(cands) == 0 {
		t.Fatal("searches failed")
	}
	if naive.ml3 != cands[0].ml3 {
		t.Errorf("alg3 best suffix %d, alg4 best %d", naive.ml3, cands[0].ml3)
	}
}

func TestRecoverHoleFillsRepetitiveLoop(t *testing.T) {
	_, m := fig2Matcher(t)
	iter := len(fig2ElseTrace())
	// Thread: [3 iterations] HOLE(about 4 iterations worth) [3 iterations],
	// with a long separate segment providing CS material.
	pre := mkFlow(m, repTrace(3, 0), nil)
	// Gap duration must imply ~4*12 tokens at the observed rate (10
	// cycles/token): 480 cycles... use 4*iter*10.
	gapDur := uint64(4 * iter * 10)
	post := mkFlow(m, repTrace(3, uint64(3*iter*10)+gapDur), &GapInfo{
		Start: uint64(3 * iter * 10), End: uint64(3*iter*10) + gapDur, LostBytes: 300,
	})
	csMat := mkFlow(m, repTrace(12, 100_000), &GapInfo{Desync: true, Start: 50_000, End: 50_000})
	r := NewRecoverer(m, []*SegmentFlow{pre, post, csMat}, DefaultRecoveryConfig())
	fill := r.RecoverHole(0)
	if fill.Method == FillNone {
		t.Fatalf("hole not filled (cands tried %d)", fill.CandidatesTried)
	}
	if len(fill.Steps) < 2*iter {
		t.Errorf("fill too short: %d steps for ~%d lost", len(fill.Steps), 4*iter)
	}
	for _, s := range fill.Steps {
		if !s.Recovered {
			t.Fatal("fill steps must be marked Recovered")
		}
	}
}

func TestRecoverDisabled(t *testing.T) {
	_, m := fig2Matcher(t)
	pre := mkFlow(m, repTrace(2, 0), nil)
	post := mkFlow(m, repTrace(2, 1000), &GapInfo{Start: 500, End: 1000, LostBytes: 100})
	cfg := DefaultRecoveryConfig()
	cfg.Disable = true
	r := NewRecoverer(m, []*SegmentFlow{pre, post}, cfg)
	if fill := r.RecoverHole(0); fill.Method != FillNone || fill.Steps != nil {
		t.Error("disabled recovery still filled")
	}
}

func TestFallbackWalkConnects(t *testing.T) {
	p, m := fig2Matcher(t)
	fun := p.MethodByName("Test.fun")
	// IS ends at fun@1 (ifeq); next segment starts at fun@15 (iload of
	// the join). No CS material exists, so the ICFG walk must connect.
	pre := mkFlow(m, []Token{
		{Op: bytecode.ILOAD, Method: fun.ID, PC: 0},
		{Op: bytecode.IFEQ, Method: fun.ID, PC: 1, HasDir: true, Taken: false},
	}, nil)
	post := mkFlow(m, []Token{
		{Op: bytecode.ILOAD, Method: fun.ID, PC: 11},
		{Op: bytecode.ICONST, Method: fun.ID, PC: 12},
	}, &GapInfo{Start: 100, End: 200, LostBytes: 40})
	r := NewRecoverer(m, []*SegmentFlow{pre, post}, DefaultRecoveryConfig())
	fill := r.RecoverHole(0)
	if fill.Method != FillWalk {
		t.Fatalf("expected walk fill, got %v (steps %d)", fill.Method, len(fill.Steps))
	}
	// The walk's steps stay inside the method and connect 1 -> 11: the
	// interior is pcs 2..10 along some path.
	for _, s := range fill.Steps {
		if s.Method != fun.ID {
			t.Errorf("walk left the method: %+v", s)
		}
	}
}

func TestChainFillCrossesSegments(t *testing.T) {
	_, m := fig2Matcher(t)
	iter := len(fig2ElseTrace())
	// The hole needs ~8 iterations but each CS segment has only 3: the
	// chained re-anchor must stitch multiple CSes.
	pre := mkFlow(m, repTrace(3, 0), nil)
	gapDur := uint64(8 * iter * 10)
	post := mkFlow(m, repTrace(3, uint64(3*iter*10)+gapDur), &GapInfo{
		Start: uint64(3 * iter * 10), End: uint64(3*iter*10) + gapDur, LostBytes: 900,
	})
	cs1 := mkFlow(m, repTrace(3, 40_000), &GapInfo{Desync: true})
	cs2 := mkFlow(m, repTrace(3, 60_000), &GapInfo{Desync: true})
	r := NewRecoverer(m, []*SegmentFlow{pre, post, cs1, cs2}, DefaultRecoveryConfig())
	fill := r.RecoverHole(0)
	if fill.Method == FillNone || fill.Method == FillWalk {
		t.Fatalf("fill method %v", fill.Method)
	}
	if len(fill.Steps) < 4*iter {
		t.Errorf("chained fill too short: %d", len(fill.Steps))
	}
}

func TestMatchKeySemantics(t *testing.T) {
	a := Token{Op: bytecode.ILOAD, Method: bytecode.NoMethod}
	b := Token{Op: bytecode.ILOAD, Method: bytecode.NoMethod}
	if a.MatchKey() != b.MatchKey() {
		t.Error("same interp tokens differ")
	}
	c := Token{Op: bytecode.IFEQ, Method: bytecode.NoMethod, HasDir: true, Taken: true}
	d := Token{Op: bytecode.IFEQ, Method: bytecode.NoMethod, HasDir: true, Taken: false}
	if c.MatchKey() == d.MatchKey() {
		t.Error("branch direction ignored")
	}
	e := Token{Op: bytecode.ILOAD, Method: 3, PC: 7}
	f := Token{Op: bytecode.ILOAD, Method: 3, PC: 8}
	if e.MatchKey() == f.MatchKey() {
		t.Error("located positions collide")
	}
	if e.MatchKey() == a.MatchKey() {
		t.Error("located vs interp collide")
	}
}

func TestFillTSCInterpolation(t *testing.T) {
	gap := &GapInfo{Start: 1000, End: 2000}
	if fillTSC(gap, 0, 10) != 1000 {
		t.Error("first step TSC")
	}
	if fillTSC(gap, 5, 10) != 1500 {
		t.Error("middle step TSC")
	}
	if fillTSC(nil, 3, 10) != 0 {
		t.Error("nil gap TSC")
	}
}

var _ = cfg.NoNode // keep cfg import if assertions change

// chainFillFullSplice is chainFill as it was before the splice was bounded
// to a tail: every spliced token is kept and continueFrom reads the whole
// splice. It also reports how many re-anchors ran and the longest splice
// a re-anchor read.
func chainFillFullSplice(r *Recoverer, c *candidate, kMin, budget int, gap *GapInfo, post []Token) (steps []Step, connected bool, reanchors, longest int) {
	y := min(r.cfg.ConfirmLen, len(post))
	if y == 0 {
		return nil, false, 0, 0
	}
	var toks []Token
	finish := func(ok bool) ([]Step, bool, int, int) {
		for i := range steps {
			steps[i].TSC = fillTSC(gap, i, len(steps))
		}
		return steps, ok, reanchors, longest
	}
	seg, pos := c.seg, int(c.pos)
	for hops := 0; hops < 8; hops++ {
		csFlow := r.flows[seg]
		cst := csFlow.Seg.Tokens
		for i := pos; i < len(cst); i++ {
			if len(toks) >= kMin && i+y <= len(cst) {
				match := true
				for j := 0; j < y; j++ {
					if cst[i+j].MatchKey() != post[j].MatchKey() {
						match = false
						break
					}
				}
				if match {
					return finish(true)
				}
			}
			if len(toks) >= budget {
				return finish(false)
			}
			toks = append(toks, cst[i])
			if n := csFlow.Nodes[i]; n != cfg.NoNode {
				mid, pc := r.m.G.Location(n)
				steps = append(steps, Step{Method: mid, PC: pc, Recovered: true})
			}
		}
		reanchors++
		longest = max(longest, len(toks))
		np, ok := r.continueFrom(toks)
		if !ok {
			break
		}
		seg, pos = np.seg, int(np.pos)
	}
	return finish(false)
}

// TestChainFillBoundedTailMatchesFullSplice: splices that outgrow the kept
// tail and re-anchor (more than once) fill exactly as they did when the
// whole splice was kept.
func TestChainFillBoundedTailMatchesFullSplice(t *testing.T) {
	_, m := fig2Matcher(t)
	iter := len(fig2ElseTrace())
	pre := mkFlow(m, repTrace(3, 0), nil)
	gapDur := uint64(40 * iter * 10)
	post := mkFlow(m, repTrace(3, uint64(3*iter*10)+gapDur), &GapInfo{
		Start: uint64(3 * iter * 10), End: uint64(3*iter*10) + gapDur, LostBytes: 4000,
	})
	// Each CS holds more than the kept tail, so the first re-anchor
	// already reads a splice longer than it.
	n := spliceTailKeep/iter + 2
	cs1 := mkFlow(m, repTrace(n, 40_000), &GapInfo{Desync: true})
	cs2 := mkFlow(m, repTrace(n, 60_000), &GapInfo{Desync: true})
	r := NewRecoverer(m, []*SegmentFlow{pre, post, cs1, cs2}, DefaultRecoveryConfig())
	cands, _, _ := r.searchCS(0)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	gap := post.Seg.GapBefore
	longest := 0
	for _, c := range cands {
		for _, kb := range [][2]int{{0, 40 * iter}, {30 * iter, 60 * iter}, {50 * iter, 80 * iter}, {0, 1}} {
			want, wantOK, _, l := chainFillFullSplice(r, &c, kb[0], kb[1], gap, post.Seg.Tokens)
			got, gotOK := r.chainFill(&c, kb[0], kb[1], gap, post.Seg.Tokens)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("candidate %+v kMin=%d budget=%d: bounded tail fills %d steps (connected %v), full splice %d (%v)",
					c, kb[0], kb[1], len(got), gotOK, len(want), wantOK)
			}
			longest = max(longest, l)
		}
	}
	if longest <= spliceTailKeep {
		t.Fatalf("no re-anchor read a splice longer than the kept tail (longest %d)", longest)
	}
}
