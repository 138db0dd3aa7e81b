package core

import (
	"sort"

	"jportal/internal/cfg"
)

// RecoveryConfig tunes the §5 data-recovery phase.
type RecoveryConfig struct {
	// AnchorLen is x: how many trailing IS tokens form the anchor used to
	// locate candidate CSes (Figure 6's "XEF").
	AnchorLen int
	// ConfirmLen is y: how many post-hole tokens must match to conclude a
	// splice ("BDCA" in Figure 6).
	ConfirmLen int
	// TopN bounds the ranked candidate list tried in order (§5,
	// Recovery).
	TopN int
	// TimeBudgetSlack scales the timestamp-derived fill budget: the hole
	// duration times the observed token rate times this slack.
	TimeBudgetSlack float64
	// MaxFillTokens caps any single fill.
	MaxFillTokens int
	// FallbackWalkMax bounds the ICFG walk used when no CS fits.
	FallbackWalkMax int
	// Disable turns recovery off entirely (ablation C).
	Disable bool
}

// DefaultRecoveryConfig mirrors the paper's setup.
func DefaultRecoveryConfig() RecoveryConfig {
	return RecoveryConfig{
		AnchorLen:       4,
		ConfirmLen:      4,
		TopN:            8,
		TimeBudgetSlack: 1.6,
		MaxFillTokens:   60000,
		FallbackWalkMax: 64,
	}
}

// FillMethod records how a hole was filled.
type FillMethod uint8

const (
	// FillNone: the hole could not be filled.
	FillNone FillMethod = iota
	// FillCS: filled from a matching complete segment whose continuation
	// reconnected with the post-hole instructions (Algorithm 4).
	FillCS
	// FillPartial: spliced from the best-matching CS up to the timestamp
	// budget without reconnecting (an engineering extension: better than
	// discarding the candidate when every CS is shorter than the hole).
	FillPartial
	// FillWalk: filled by walking the ICFG between the hole's endpoints
	// (the paper's random-path fallback).
	FillWalk
)

// Fill is the recovery result for one hole.
type Fill struct {
	Method FillMethod
	Steps  []Step
	// CandidatesTried and TierPrunes are diagnostics for the ablation.
	CandidatesTried int
	TierPrunes      int
}

// Recoverer implements §5 over one thread's reconstructed segments.
type Recoverer struct {
	m     *Matcher
	cfg   RecoveryConfig
	flows []*SegmentFlow

	// anchor index: hash of AnchorLen consecutive MatchKeys -> positions
	// (the position is the index just past the anchor).
	index anchorIndex

	// tokenRate is tokens per cycle, estimated from captured data.
	tokenRate float64
}

type anchorPos struct {
	seg int32
	pos int32
}

// anchorIndex is a multi-map from anchor hash to anchor positions. All
// positions live in one flat preallocated entry array, chained per hash
// through next indices, with the map holding only a compact head/tail
// pair per distinct hash — no per-hash slice allocations (those
// dominated the recovery path's allocations as a map[uint64][]anchorPos)
// and O(1) insertion even for the highly duplicated hashes repetitive
// code produces. visit walks a hash's chain in insertion order, which
// keeps candidate ranking deterministic.
type anchorIndex struct {
	chains  map[uint64]anchorChain
	entries []anchorEntry
}

// anchorChain is one hash's chain: indices of the first and last entry.
type anchorChain struct {
	head, tail int32
}

// anchorEntry is one position plus the index of the next entry with the
// same hash (-1 terminates the chain).
type anchorEntry struct {
	pos  anchorPos
	next int32
}

func newAnchorIndex(capacity int) anchorIndex {
	return anchorIndex{
		chains:  make(map[uint64]anchorChain, capacity/8+1),
		entries: make([]anchorEntry, 0, capacity),
	}
}

func (ix *anchorIndex) add(h uint64, seg, pos int32) {
	i := int32(len(ix.entries))
	ix.entries = append(ix.entries, anchorEntry{pos: anchorPos{seg: seg, pos: pos}, next: -1})
	if c, ok := ix.chains[h]; ok {
		ix.entries[c.tail].next = i
		c.tail = i
		ix.chains[h] = c
	} else {
		ix.chains[h] = anchorChain{head: i, tail: i}
	}
}

// visit calls fn for every position recorded under h, insertion order.
func (ix *anchorIndex) visit(h uint64, fn func(anchorPos)) {
	c, ok := ix.chains[h]
	if !ok {
		return
	}
	for i := c.head; i >= 0; i = ix.entries[i].next {
		fn(ix.entries[i].pos)
	}
}

// NewRecoverer builds the anchor index over all of the thread's segments
// (every segment is a potential CS for some other segment's hole — the
// paper notes "complete" and "incomplete" are relative).
//
// Construction also forces every segment's tier-1/tier-2 abstraction
// caches: after NewRecoverer returns, the recoverer, its index and all
// segments are strictly read-only, so RecoverHole may be called for
// different holes from concurrent goroutines.
func NewRecoverer(m *Matcher, flows []*SegmentFlow, cfg RecoveryConfig) *Recoverer {
	// Size the flat index to its exact entry count: one entry per
	// indexable token position.
	positions := 0
	for _, f := range flows {
		if f != nil && !f.Quarantined && len(f.Seg.Tokens) >= cfg.AnchorLen {
			positions += len(f.Seg.Tokens) - cfg.AnchorLen + 1
		}
	}
	r := &Recoverer{m: m, cfg: cfg, flows: flows, index: newAnchorIndex(positions)}
	var tokens uint64
	var activeSpan uint64
	for si, f := range flows {
		if f == nil || f.Quarantined {
			// Quarantined segments hold untrusted tokens: splicing them
			// into holes would launder corrupt data back into the profile.
			continue
		}
		f.Seg.ensureAbs() // lazily-built otherwise: a data race under concurrent recovery
		toks := f.Seg.Tokens
		tokens += uint64(len(toks))
		if n := len(toks); n > 1 && toks[n-1].TSC > toks[0].TSC {
			// Sum only the spans the thread was actually captured in, so
			// the rate is not diluted by idle or lost periods.
			activeSpan += toks[n-1].TSC - toks[0].TSC
		}
		if len(toks) < cfg.AnchorLen {
			continue
		}
		for i := 0; i < len(toks); i++ {
			if i+1 >= cfg.AnchorLen {
				r.index.add(anchorHash(i, cfg.AnchorLen, toks), int32(si), int32(i+1))
			}
		}
	}
	if activeSpan > 0 && tokens > 0 {
		r.tokenRate = float64(tokens) / float64(activeSpan)
	} else {
		r.tokenRate = 0.1
	}
	return r
}

// anchorHash computes the hash of the window of AnchorLen keys ending at
// index i. A simple recompute keeps it obviously correct; the window is
// tiny.
func anchorHash(i, x int, toks []Token) uint64 {
	if i+1 < x {
		return 0
	}
	h := uint64(0x9e3779b97f4a7c15)
	for j := i + 1 - x; j <= i; j++ {
		h ^= toks[j].MatchKey()
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	return h
}

// suffixKeys compares keys backwards and returns the common-suffix length.
// a ends at ai (exclusive), b ends at bi (exclusive).
func suffixKeys(a []Token, ai int, b []Token, bi int) int {
	n := 0
	for ai-n > 0 && bi-n > 0 && a[ai-n-1].MatchKey() == b[bi-n-1].MatchKey() {
		n++
	}
	return n
}

// suffixAbs compares tier-l abstracted sequences backwards. ia/ib are the
// exclusive abstract end positions.
func suffixAbs(sa *Segment, ia int32, sb *Segment, ib int32, l int) int {
	aa := sa.Abstraction(l)
	ab := sb.Abstraction(l)
	n := int32(0)
	for ia-n > 0 && ib-n > 0 &&
		sa.Tokens[aa[ia-n-1]].MatchKey() == sb.Tokens[ab[ib-n-1]].MatchKey() {
		n++
	}
	return int(n)
}

// candidate is one potential CS with its tiered match lengths.
type candidate struct {
	seg           int32
	pos           int32
	ml1, ml2, ml3 int
}

// searchCS is Algorithm 4: rank the anchor-matching candidates by common
// suffix with the IS, comparing tier-1 first, then tier-2, then concrete,
// skipping candidates that a higher tier already rules out (Theorem 5.5).
// It returns the TopN candidates, best first, plus diagnostics.
func (r *Recoverer) searchCS(isIdx int) ([]candidate, int, int) {
	if f := r.flows[isIdx]; f == nil || f.Quarantined {
		return nil, 0, 0 // no trustworthy anchor to search from
	}
	is := r.flows[isIdx].Seg
	n := len(is.Tokens)
	if n < r.cfg.AnchorLen {
		return nil, 0, 0
	}
	h := anchorHash(n-1, r.cfg.AnchorLen, is.Tokens)
	var cands []candidate
	tried, pruned := 0, 0
	m1, m2, m3 := 0, 0, 0
	r.index.visit(h, func(ap anchorPos) {
		if int(ap.seg) == isIdx && int(ap.pos) == n {
			return // the IS's own tail
		}
		cs := r.flows[ap.seg].Seg
		// Verify the anchor (hash collisions).
		if suffixKeys(is.Tokens, n, cs.Tokens, int(ap.pos)) < r.cfg.AnchorLen {
			return
		}
		tried++
		// Tier 1 (call structure).
		ml1 := suffixAbs(is, is.AbsPrefix(1, n), cs, cs.AbsPrefix(1, int(ap.pos)), 1)
		if ml1 < m1 {
			pruned++
			return
		}
		// Tier 2 (control structure).
		ml2 := suffixAbs(is, is.AbsPrefix(2, n), cs, cs.AbsPrefix(2, int(ap.pos)), 2)
		if ml2 < m2 {
			pruned++
			return
		}
		// Tier 3 (concrete).
		ml3 := suffixKeys(is.Tokens, n, cs.Tokens, int(ap.pos))
		c := candidate{seg: ap.seg, pos: ap.pos, ml1: ml1, ml2: ml2, ml3: ml3}
		cands = append(cands, c)
		if ml3 >= m3 {
			m1, m2, m3 = ml1, ml2, ml3
		}
	})
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].ml3 != cands[j].ml3 {
			return cands[i].ml3 > cands[j].ml3
		}
		if cands[i].ml2 != cands[j].ml2 {
			return cands[i].ml2 > cands[j].ml2
		}
		if cands[i].ml1 != cands[j].ml1 {
			return cands[i].ml1 > cands[j].ml1
		}
		if cands[i].seg != cands[j].seg {
			return cands[i].seg < cands[j].seg
		}
		return cands[i].pos < cands[j].pos
	})
	if len(cands) > r.cfg.TopN {
		cands = cands[:r.cfg.TopN]
	}
	return cands, tried, pruned
}

// searchCSNaive is Algorithm 3: enumerate anchor-matching candidates and
// pick the one with the longest concrete common suffix, with no tier
// pruning. Used by the ablation benchmarks.
func (r *Recoverer) searchCSNaive(isIdx int) (candidate, bool) {
	if f := r.flows[isIdx]; f == nil || f.Quarantined {
		return candidate{}, false
	}
	is := r.flows[isIdx].Seg
	n := len(is.Tokens)
	if n < r.cfg.AnchorLen {
		return candidate{}, false
	}
	anchor := is.Tokens[n-r.cfg.AnchorLen:]
	best := candidate{ml3: -1}
	found := false
	for si, f := range r.flows {
		if f == nil || f.Quarantined {
			continue
		}
		toks := f.Seg.Tokens
		for p := r.cfg.AnchorLen; p <= len(toks); p++ {
			if si == isIdx && p == n {
				continue
			}
			ok := true
			for j := 0; j < r.cfg.AnchorLen; j++ {
				if toks[p-r.cfg.AnchorLen+j].MatchKey() != anchor[j].MatchKey() {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			ml3 := suffixKeys(is.Tokens, n, toks, p)
			if ml3 > best.ml3 {
				best = candidate{seg: int32(si), pos: int32(p), ml3: ml3}
				found = true
			}
		}
	}
	return best, found
}

// SearchTiered runs the Algorithm 4 candidate search (anchor index plus
// tier-1/tier-2/concrete suffix comparison with Theorem 5.5 pruning) for
// the hole after segment isIdx and reports the best concrete suffix length,
// the candidates examined and the candidates pruned at an abstract tier.
// Exposed for the ablation benchmarks.
func (r *Recoverer) SearchTiered(isIdx int) (best, tried, pruned int) {
	cands, tried, pruned := r.searchCS(isIdx)
	if len(cands) > 0 {
		best = cands[0].ml3
	}
	return best, tried, pruned
}

// SearchNaive runs the Algorithm 3 search (anchor scan with concrete-only
// comparison, no abstraction pruning) and reports the best concrete suffix
// length. Exposed for the ablation benchmarks.
func (r *Recoverer) SearchNaive(isIdx int) (best int, found bool) {
	c, ok := r.searchCSNaive(isIdx)
	return c.ml3, ok
}

// RecoverHole fills the hole after segment isIdx (before segment isIdx+1)
// per §5: try the ranked CSes, reading the winning CS's suffix until the
// post-hole instructions are reached or the timestamp budget runs out, then
// fall back to an ICFG walk.
func (r *Recoverer) RecoverHole(isIdx int) Fill {
	if r.cfg.Disable {
		return Fill{}
	}
	nextFlow := r.flows[isIdx+1]
	if nextFlow == nil || r.flows[isIdx] == nil {
		return Fill{}
	}
	gap := nextFlow.Seg.GapBefore
	// The timestamps around the hole tell us roughly how much execution
	// is missing (paper §5, Recovery): the splice must read about d's
	// worth of instructions from the CS — not accept the first trivial
	// match, which in repetitive code would appear immediately.
	budget := r.cfg.MaxFillTokens
	expected := 0
	if gap != nil && gap.Duration() > 0 {
		expected = int(float64(gap.Duration()) * r.tokenRate)
		b := int(float64(expected) * r.cfg.TimeBudgetSlack)
		if b < r.cfg.ConfirmLen*4 {
			b = r.cfg.ConfirmLen * 4
		}
		if b < budget {
			budget = b
		}
		if expected > r.cfg.MaxFillTokens {
			expected = r.cfg.MaxFillTokens
		}
	}
	kMin := expected * 7 / 10

	cands, tried, pruned := r.searchCS(isIdx)
	fill := Fill{CandidatesTried: tried, TierPrunes: pruned}
	post := nextFlow.Seg.Tokens
	if nextFlow.Quarantined {
		post = nil // untrusted tokens cannot confirm a splice
	}
	var bestPartial []Step
	for _, c := range cands {
		steps, connected := r.chainFill(&c, kMin, budget, gap, post)
		if connected {
			fill.Method = FillCS
			fill.Steps = steps
			return fill
		}
		if len(steps) > len(bestPartial) {
			bestPartial = steps
		}
	}
	// No candidate reconnected within the budget. Keep the longest
	// splice when the hole is substantial, rather than dropping to a
	// blind walk.
	if expected > r.cfg.ConfirmLen*4 && len(bestPartial) >= r.cfg.ConfirmLen*4 {
		fill.Method = FillPartial
		fill.Steps = bestPartial
		return fill
	}
	// Fallback: walk the ICFG from the last projected node of the IS to
	// the first projected node after the hole.
	if steps, ok := r.fallbackWalk(isIdx, gap); ok {
		fill.Method = FillWalk
		fill.Steps = steps
	}
	return fill
}

// chainFill splices the CS continuation starting at candidate c; when the
// CS runs out before the hole is covered, it re-anchors from the splice's
// own tail and continues from the next best matching position (holes can be
// longer than any single complete segment). It reports whether the splice
// reconnected with the post-hole tokens.
func (r *Recoverer) chainFill(c *candidate, kMin, budget int, gap *GapInfo, post []Token) ([]Step, bool) {
	y := r.cfg.ConfirmLen
	if y > len(post) {
		y = len(post)
	}
	if y == 0 {
		return nil, false
	}
	// The splice itself is only ever read through its length and, when
	// re-anchoring, its last continueWindow tokens, so only a bounded tail
	// of it is kept.
	var tail spliceTail
	var steps []Step
	finish := func(connected bool) ([]Step, bool) {
		for i := range steps {
			steps[i].TSC = fillTSC(gap, i, len(steps))
		}
		return steps, connected
	}
	seg, pos := c.seg, int(c.pos)
	for hops := 0; hops < 8; hops++ {
		csFlow := r.flows[seg]
		cst := csFlow.Seg.Tokens
		for i := pos; i < len(cst); i++ {
			// Does the continuation here line up with the post-hole
			// tokens (and have we consumed enough of the budget for the
			// hole's duration)?
			if tail.n >= kMin && i+y <= len(cst) {
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
			if tail.n >= budget {
				return finish(false)
			}
			tail.push(cst[i])
			if n := csFlow.Nodes[i]; n != cfg.NoNode {
				mid, pc := r.m.G.Location(n)
				steps = append(steps, Step{Method: mid, PC: pc, Recovered: true})
			}
		}
		np, ok := r.continueFrom(tail.toks)
		if !ok {
			break
		}
		seg, pos = np.seg, int(np.pos)
	}
	return finish(false)
}

// continueWindow caps the common-suffix length continueFrom ranks
// re-anchor positions by.
const continueWindow = 64

// spliceTail counts the tokens spliced so far and keeps the newest of them:
// at least continueWindow+1, enough that continueFrom's capped suffix
// comparison reads exactly what it would over the whole splice.
type spliceTail struct {
	n    int
	toks []Token
}

// spliceTailKeep is how many newest tokens a spliceTail retains.
const spliceTailKeep = continueWindow + 1

func (t *spliceTail) push(tok Token) {
	switch len(t.toks) {
	case 0:
		if t.toks == nil {
			t.toks = make([]Token, 0, 2*spliceTailKeep)
		}
	case 2 * spliceTailKeep:
		t.toks = t.toks[:copy(t.toks, t.toks[spliceTailKeep:])]
	}
	t.toks = append(t.toks, tok)
	t.n++
}

// continueFrom locates the position whose context best matches the tail of
// the splice so far (the chained re-anchor).
func (r *Recoverer) continueFrom(tail []Token) (anchorPos, bool) {
	x := r.cfg.AnchorLen
	if len(tail) < x {
		return anchorPos{}, false
	}
	h := anchorHash(len(tail)-1, x, tail)
	var best anchorPos
	bestLen := -1
	r.index.visit(h, func(ap anchorPos) {
		cs := r.flows[ap.seg].Seg
		n := suffixKeys(tail, len(tail), cs.Tokens, int(ap.pos))
		if n < x {
			return // hash collision
		}
		if n > continueWindow {
			n = continueWindow
		}
		// Prefer positions with actual continuation left.
		if int(ap.pos) >= len(cs.Tokens) {
			return
		}
		if n > bestLen {
			bestLen = n
			best = ap
		}
	})
	return best, bestLen >= x
}

// fillTSC interpolates timestamps across the hole.
func fillTSC(gap *GapInfo, i, k int) uint64 {
	if gap == nil || k == 0 {
		return 0
	}
	return gap.Start + gap.Duration()*uint64(i)/uint64(k)
}

// fallbackWalk finds any ICFG path connecting the pre- and post-hole
// instructions (bounded BFS); the paper returns a random connecting path
// when no CS fits.
func (r *Recoverer) fallbackWalk(isIdx int, gap *GapInfo) ([]Step, bool) {
	from := lastNode(r.flows[isIdx])
	to := firstNode(r.flows[isIdx+1])
	if from == cfg.NoNode || to == cfg.NoNode {
		return nil, false
	}
	// BFS over successors, treating every edge as viable (directions
	// unknown inside the hole).
	type qe struct {
		n    cfg.NodeID
		prev int32
	}
	visited := map[cfg.NodeID]bool{from: true}
	queue := []qe{{n: from, prev: -1}}
	foundAt := -1
	for qi := 0; qi < len(queue) && qi < r.cfg.FallbackWalkMax*16; qi++ {
		cur := queue[qi]
		if cur.n == to && qi != 0 {
			foundAt = qi
			break
		}
		depth := 0
		for p := cur.prev; p >= 0; p = queue[p].prev {
			depth++
		}
		if depth >= r.cfg.FallbackWalkMax {
			continue
		}
		for _, e := range r.m.G.Succs[cur.n] {
			if !visited[e.To] {
				visited[e.To] = true
				queue = append(queue, qe{n: e.To, prev: int32(qi)})
			}
		}
	}
	if foundAt < 0 {
		return nil, false
	}
	var rev []cfg.NodeID
	for p := int32(foundAt); p >= 0; p = queue[p].prev {
		rev = append(rev, queue[p].n)
	}
	// rev includes `from` (already emitted) and `to` (will be emitted by
	// the next segment); keep the interior.
	if len(rev) <= 2 {
		return nil, true
	}
	k := len(rev) - 2
	steps := make([]Step, 0, k)
	for i := len(rev) - 2; i >= 1; i-- {
		mid, pc := r.m.G.Location(rev[i])
		steps = append(steps, Step{Method: mid, PC: pc, TSC: fillTSC(gap, len(steps), k), Recovered: true})
	}
	return steps, true
}

func lastNode(f *SegmentFlow) cfg.NodeID {
	for i := len(f.Nodes) - 1; i >= 0; i-- {
		if f.Nodes[i] != cfg.NoNode {
			return f.Nodes[i]
		}
	}
	return cfg.NoNode
}

func firstNode(f *SegmentFlow) cfg.NodeID {
	for i := 0; i < len(f.Nodes); i++ {
		if f.Nodes[i] != cfg.NoNode {
			return f.Nodes[i]
		}
	}
	return cfg.NoNode
}
