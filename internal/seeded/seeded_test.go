package seeded

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// TestStreamMatchesSplitmix64 pins the generator to splitmix64's published
// output for seed 0, and Mix to the stream's first draw.
func TestStreamMatchesSplitmix64(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	s := NewStream(0)
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("draw %d = %#x, want %#x", i, got, w)
		}
	}
	for _, seed := range []uint64{0, 1, 42, math.MaxUint64} {
		s := NewStream(seed)
		if first := s.Next(); first != Mix(seed) {
			t.Fatalf("seed %d: first draw %#x, Mix %#x", seed, first, Mix(seed))
		}
	}
	if Mix(7) != Finalize(7+golden) {
		t.Fatal("Mix is not the finalizer of the incremented state")
	}
}

// TestDeriveAndScope pins the derivations the fault injectors seed their
// streams with: Derive(k) starts where one step of NewStream(k) lands, and
// Scope folds an FNV-1a-style hash of the name into the seed.
func TestDeriveAndScope(t *testing.T) {
	a, b := Derive(99), NewStream(Mix(99))
	if a.Next() != b.Next() {
		t.Fatal("Derive(k) is not NewStream(Mix(k))")
	}
	// The name hash of "" is the offset basis; each byte is xored in, then
	// multiplied by the FNV prime.
	basis := uint64(1469598103934665603)
	x, y := Scope(5, ""), Derive(5^basis)
	if x.Next() != y.Next() {
		t.Fatal("Scope(seed, \"\") does not fold in the offset basis")
	}
	x, y = Scope(5, "a"), Derive(5^((basis^'a')*1099511628211))
	if x.Next() != y.Next() {
		t.Fatal("Scope(seed, \"a\") does not fold in the name hash")
	}
	c, d := Scope(5, "client"), Scope(5, "ctrl")
	if c.Next() == d.Next() {
		t.Fatal("distinct scopes drew the same first value")
	}
}

func TestChanceAndIntn(t *testing.T) {
	s := NewStream(3)
	before := s
	if s.Chance(0) || s.Chance(-1) || !s.Chance(1) || !s.Chance(2) {
		t.Fatal("Chance at p <= 0 or p >= 1 is not certain")
	}
	if s != before {
		t.Fatal("certain Chance calls advanced the stream")
	}
	hits := 0
	for i := 0; i < 10000; i++ {
		if s.Chance(0.25) {
			hits++
		}
		if v := s.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	if hits < 2300 || hits > 2700 {
		t.Fatalf("Chance(0.25) hit %d/10000", hits)
	}
}

func TestScaleProbClamps(t *testing.T) {
	for _, tc := range []struct{ p, f, want float64 }{
		{0.1, 2, 0.2}, {0.6, 2, 1}, {0.5, 0, 0}, {0.5, -1, 0}, {1, 1, 1},
	} {
		if got := ScaleProb(tc.p, tc.f); got != tc.want {
			t.Errorf("ScaleProb(%v, %v) = %v, want %v", tc.p, tc.f, got, tc.want)
		}
	}
}

// TestSweepDefaultsAndErrors pins the shared rate loop: defaults fill in,
// rows come back in rate order, and the first error stops the sweep with
// its rate in the message and the earlier rows kept.
func TestSweepDefaultsAndErrors(t *testing.T) {
	var seen []float64
	rows, err := Sweep(SweepConfig{}, "test", func(cfg SweepConfig, rate float64) (float64, error) {
		if cfg.Sessions != 2 || cfg.Logf == nil {
			t.Fatalf("defaults not filled: sessions %d, logf nil %t", cfg.Sessions, cfg.Logf == nil)
		}
		seen = append(seen, rate)
		return rate * 10, nil
	})
	if err != nil || len(rows) != 3 || rows[2] != 20 || len(seen) != 3 || seen[1] != 1 {
		t.Fatalf("default sweep: rows %v, rates %v, err %v", rows, seen, err)
	}

	boom := errors.New("boom")
	counts, err := Sweep(SweepConfig{Rates: []float64{0, 0.5, 3}, Sessions: 4}, "disk",
		func(cfg SweepConfig, rate float64) (int, error) {
			if rate == 0.5 {
				return 0, boom
			}
			return cfg.Sessions, nil
		})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "disk sweep at rate 0.5") {
		t.Fatalf("error = %v", err)
	}
	if len(counts) != 1 || counts[0] != 4 {
		t.Fatalf("rows before the failing rate = %v", counts)
	}
}
