package bench

import (
	"strings"
	"testing"
)

func report(allocs, bytes float64) *Report {
	return &Report{Kernels: []Kernel{{Name: "K", AllocsPerOp: allocs, BytesPerOp: bytes}}}
}

// TestGuardBytesPerOp pins the B/op half of the guard band: one-sided, with
// the same tolerance as allocs/op and a small absolute slack.
func TestGuardBytesPerOp(t *testing.T) {
	base := report(10, 100_000)
	cases := []struct {
		name   string
		cur    *Report
		expect string // substring of the single violation, "" for none
	}{
		{"same", report(10, 100_000), ""},
		{"within tolerance", report(10, 119_000), ""},
		{"shrunk", report(2, 1_000), ""},
		{"bytes grew", report(10, 130_000), "B/op"},
		{"allocs grew", report(20, 100_000), "allocs/op"},
	}
	for _, c := range cases {
		bad := Guard(base, c.cur, 0.2)
		switch {
		case c.expect == "" && len(bad) != 0:
			t.Errorf("%s: unexpected violations %q", c.name, bad)
		case c.expect != "" && (len(bad) != 1 || !strings.Contains(bad[0], c.expect)):
			t.Errorf("%s: violations %q, want one mentioning %s", c.name, bad, c.expect)
		}
	}
	// An allocation-free kernel may read a few stray bytes per op.
	if bad := Guard(report(0, 0), report(0, 1), 0.2); len(bad) != 0 {
		t.Errorf("0 -> 1 B/op tripped the guard: %q", bad)
	}
	if bad := Guard(report(0, 0), report(0, 4096), 0.2); len(bad) != 1 {
		t.Errorf("0 -> 4096 B/op: violations %q, want one", bad)
	}
}
