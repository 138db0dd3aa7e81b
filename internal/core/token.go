// Package core implements JPortal's offline analysis — the paper's primary
// contribution: decoding hardware traces into bytecode instruction
// sequences (§3), projecting those sequences onto the program's ICFG by
// NFA-based matching with abstraction-guided search (§4, Definitions
// 4.1-4.3, Algorithms 1-2), and recovering the holes that data loss leaves
// between trace segments with the three-tier abstraction hierarchy and
// pruned candidate search (§5, Definitions 5.1-5.2, Lemmas 5.3-5.4,
// Theorem 5.5, Algorithms 3-4).
package core

import (
	"fmt"

	"jportal/internal/bytecode"
)

// Token is one bytecode-level trace event produced by decoding. Tokens from
// interpreted execution carry only the opcode (plus the branch direction
// for conditionals) — *which* program instruction executed is exactly what
// reconstruction must determine. Tokens decoded from JITed code carry their
// precise location from the debug metadata.
//
// Fields are ordered widest first so a Token packs into 24 bytes (pinned
// by TestTokenSize): the token arena holds one per decoded bytecode, so
// padding here is paid on every slab, slab-growth copy and clear.
type Token struct {
	// TSC is the best-effort timestamp.
	TSC uint64
	// Method/PC locate the instruction when known (JIT debug info);
	// Method is bytecode.NoMethod for interpreter tokens.
	Method bytecode.MethodID
	PC     int32
	Op     bytecode.Opcode
	// HasDir/Taken give the conditional-branch outcome.
	HasDir bool
	Taken  bool
	// Approx marks tokens from approximate debug records.
	Approx bool
}

// Located reports whether the token carries a precise location.
func (t *Token) Located() bool { return t.Method != bytecode.NoMethod }

// Tier reports the highest abstraction tier the token survives:
// 1 for call-structure tokens, 2 for other control tokens, 3 otherwise
// (Definition 5.2: tier-l abstraction keeps tokens with Tier() <= l).
func (t *Token) Tier() int {
	switch {
	case t.Op.IsCallStructure():
		return 1
	case t.Op.IsControl():
		return 2
	}
	return 3
}

// MatchKey is a comparable summary used by recovery matching: located
// tokens compare by position, interpreter tokens by opcode and direction.
func (t *Token) MatchKey() uint64 {
	if t.Located() {
		return 1<<63 | uint64(uint32(t.Method))<<24 | uint64(uint32(t.PC))&0xffffff
	}
	k := uint64(t.Op)
	if t.HasDir {
		k |= 1 << 9
		if t.Taken {
			k |= 1 << 10
		}
	}
	return k
}

func (t Token) String() string {
	dir := ""
	if t.HasDir {
		if t.Taken {
			dir = " 1"
		} else {
			dir = " 0"
		}
	}
	if t.Located() {
		return fmt.Sprintf("m%d@%d:%s%s", t.Method, t.PC, t.Op, dir)
	}
	return fmt.Sprintf("%s%s", t.Op, dir)
}

// GapInfo describes the discontinuity preceding a segment.
type GapInfo struct {
	// LostBytes is the dropped trace volume (0 for pure desyncs).
	LostBytes uint64
	// Start and End bound the loss episode in time.
	Start, End uint64
	// Desync marks decoder desynchronisation rather than buffer loss.
	Desync bool
}

// Duration returns the loss episode length in cycles.
func (g *GapInfo) Duration() uint64 {
	if g.End > g.Start {
		return g.End - g.Start
	}
	return 0
}

// Segment is a maximal run of decoded tokens with no internal data loss
// (the paper's ω, §4). GapBefore is nil only for a thread's first segment.
type Segment struct {
	Tokens    []Token
	GapBefore *GapInfo

	// abs1/abs2 are the tier-1/tier-2 abstractions: indices into Tokens
	// of the surviving tokens (computed lazily; see Abstraction).
	abs1, abs2 []int32
	// absIdx1/absIdx2 give, for every concrete index, how many
	// tier-1/tier-2 tokens occur strictly before it (prefix counts used
	// by suffix comparisons at higher tiers).
	absIdx1, absIdx2 []int32
}

// Abstraction returns the indices of tokens surviving tier-l abstraction
// (Definition 5.2), computing and caching them on first use.
func (s *Segment) Abstraction(l int) []int32 {
	s.ensureAbs()
	switch l {
	case 1:
		return s.abs1
	case 2:
		return s.abs2
	}
	panic("core: Abstraction tier must be 1 or 2")
}

// AbsPrefix returns, for concrete index i, the number of tier-l tokens at
// indices < i.
func (s *Segment) AbsPrefix(l int, i int) int32 {
	s.ensureAbs()
	switch l {
	case 1:
		return s.absIdx1[i]
	case 2:
		return s.absIdx2[i]
	}
	panic("core: AbsPrefix tier must be 1 or 2")
}

func (s *Segment) ensureAbs() {
	if s.absIdx1 != nil {
		return
	}
	n := len(s.Tokens)
	s.absIdx1 = make([]int32, n+1)
	s.absIdx2 = make([]int32, n+1)
	for i := range s.Tokens {
		s.absIdx1[i] = int32(len(s.abs1))
		s.absIdx2[i] = int32(len(s.abs2))
		switch s.Tokens[i].Tier() {
		case 1:
			s.abs1 = append(s.abs1, int32(i))
			s.abs2 = append(s.abs2, int32(i))
		case 2:
			s.abs2 = append(s.abs2, int32(i))
		}
	}
	s.absIdx1[n] = int32(len(s.abs1))
	s.absIdx2[n] = int32(len(s.abs2))
}
