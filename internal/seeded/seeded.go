// Package seeded is the program's one deterministic pseudo-random core
// (DESIGN.md §10): the splitmix64 generator behind every seeded decision —
// trace, sideband and metadata corruption (internal/fault), connection
// verdicts (internal/netfault), storage actions (internal/iofault), JIT
// elision, scheduler quanta and workload generation — plus the per-rate
// loop the archive chaos sweeps share.
//
// splitmix64 is tiny, seedable and good enough to make decisions look
// arbitrary while staying fully reproducible: the same seed yields the
// same stream on every platform and in every run.
package seeded

import "fmt"

// golden is splitmix64's increment (2^64 / φ, forced odd).
const golden = 0x9e3779b97f4a7c15

// Finalize is splitmix64's output finalizer: it avalanches every input bit
// across the whole word, so near-identical inputs land far apart.
func Finalize(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mix is the stateless form of the generator: the value a Stream seeded
// with x draws first. Use it to hash a key into a one-off decision.
func Mix(x uint64) uint64 { return Finalize(x + golden) }

// Stream is a splitmix64 generator. The zero value is the stream seeded
// with 0. A Stream is not safe for concurrent use.
type Stream struct{ state uint64 }

// NewStream returns the stream seeded with seed.
func NewStream(seed uint64) Stream { return Stream{state: seed} }

// Derive returns a stream whose seed is key run through one generator
// step, so streams for nearby keys (consecutive cores, say) decorrelate.
func Derive(key uint64) Stream { return Stream{state: Mix(key)} }

// Scope derives the stream for a named scope under seed: an FNV-1a-style
// hash of name folded into the seed, then Derive. Each scope draws
// independently of every other, so the nth decision in one scope does not
// depend on what other scopes drew meanwhile. The hash's offset basis is
// FNV's 14695981039346656037 with its last digit dropped; every scope
// stream the fault sweeps replay depends on it, so it stays.
func Scope(seed uint64, name string) Stream {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return Derive(seed ^ h)
}

// Next returns the next 64-bit value and advances the stream.
func (s *Stream) Next() uint64 {
	x := s.state
	s.state += golden
	return Mix(x)
}

// Chance returns true with probability p. It draws from the stream only
// when 0 < p < 1.
func (s *Stream) Chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(s.Next()>>11)/float64(1<<53) < p
}

// Intn returns a value in [0, n). n must be positive.
func (s *Stream) Intn(n int) int { return int(s.Next() % uint64(n)) }

// ScaleProb multiplies probability p by f and clamps the result to [0, 1]:
// the one knob every fault matrix's Scale turns.
func ScaleProb(p, f float64) float64 {
	p *= f
	if p > 1 {
		return 1
	}
	if p < 0 {
		return 0
	}
	return p
}

// SweepConfig configures one archive chaos sweep (`jportal chaos -fleet`
// or `-disk`): a sealed archive pushed through a fault-injected service
// once per rate.
type SweepConfig struct {
	// ArchiveDir is a sealed chunked archive (collect -chunked output) to
	// push through the faulted service.
	ArchiveDir string
	// SourceID is the archive's trace-source backend ("" = default).
	SourceID string
	// Seed feeds the fault matrix; the whole sweep is deterministic per
	// seed (its table reports outcome invariants only).
	Seed uint64
	// Rates are the default matrix's scale factors to sweep (default
	// 0, 1, 2).
	Rates []float64
	// Sessions is how many sessions to push per rate (default 2).
	Sessions int
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Sweep fills cfg's defaults and calls once for each rate in order,
// collecting one row per rate. It stops at the first error, returning the
// rows so far with the error labelled by name and rate.
func Sweep[R any](cfg SweepConfig, name string, once func(cfg SweepConfig, rate float64) (R, error)) ([]R, error) {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if len(cfg.Rates) == 0 {
		cfg.Rates = []float64{0, 1, 2}
	}
	rows := make([]R, 0, len(cfg.Rates))
	for _, rate := range cfg.Rates {
		row, err := once(cfg, rate)
		if err != nil {
			return rows, fmt.Errorf("%s sweep at rate %g: %w", name, rate, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
