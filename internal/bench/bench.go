// Package bench defines the BENCH_<n>.json performance-snapshot schema
// (DESIGN.md §12) and its guard-band comparison. Each PR that touches the
// hot path commits one snapshot, so the repository carries a recorded
// perf trajectory instead of anecdotes in commit messages.
//
// The snapshot has three sections:
//
//   - kernels: testing.Benchmark results for the steady-state kernels
//     (NFA MatchFromScratch, event Tokenize, stitcher carve) — ns/op,
//     allocs/op, B/op, and derived per-second rates;
//   - streaming: end-to-end replay of a chunked archive — trace bytes/s
//     and bytecodes reconstructed/s at a given worker count;
//   - subjects: batch-analysis wall-clock per benchmark subject;
//   - fleet (optional): sharded-ingest throughput, the same session set
//     pushed through a coordinator onto 1 node and onto N.
//
// Wall-clock numbers move with the machine and its load; allocs/op and
// B/op are properties of the code alone. The CI guard therefore compares
// only those two, with a tolerance for runtime noise (size-class
// rounding, map growth timing). B/op is guarded as well as allocs/op
// because a kernel can allocate heavily in few calls: allocs/op is a
// truncated integer, so a slab-allocating kernel reads 0 allocs/op at
// ~100 KB/op.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// Kernel is one testing.Benchmark result.
type Kernel struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// UnitsPerSec is the kernel's natural rate: tokens/s for Tokenize,
	// matched tokens/s for MatchFromScratch, carved items/s for the
	// stitcher.
	UnitsPerSec float64 `json:"units_per_sec,omitempty"`
}

// Streaming is one end-to-end archive-replay measurement.
type Streaming struct {
	Subject         string  `json:"subject"`
	Scale           float64 `json:"scale"`
	Workers         int     `json:"workers"`
	Pipelined       bool    `json:"pipelined"`
	TraceBytes      int64   `json:"trace_bytes"`
	WallMs          float64 `json:"wall_ms"` // min over Reps
	TraceMBPerSec   float64 `json:"trace_mb_per_sec"`
	Bytecodes       int64   `json:"bytecodes"`
	BytecodesPerSec float64 `json:"bytecodes_per_sec"`
}

// Subject is one batch-analysis wall-clock measurement.
type Subject struct {
	Name   string  `json:"name"`
	Scale  float64 `json:"scale"`
	WallMs float64 `json:"wall_ms"` // min over Reps
}

// Fleet is one sharded-ingest throughput measurement: the same session
// set pushed through a coordinator onto N nodes (DESIGN.md §14). The
// 1-node row is the baseline the multi-node rows are read against.
type Fleet struct {
	Nodes    int `json:"nodes"`
	Sessions int `json:"sessions"`
	// TraceBytes is the payload per session; the fleet ingests
	// Sessions x TraceBytes in total.
	TraceBytes    int64   `json:"trace_bytes"`
	WallMs        float64 `json:"wall_ms"` // min over Reps
	TraceMBPerSec float64 `json:"trace_mb_per_sec"`
}

// Report is one committed BENCH_<n>.json snapshot.
type Report struct {
	PR        int    `json:"pr"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// Quick marks a smoke run: kernels only, streaming and subject
	// sweeps skipped.
	Quick bool `json:"quick,omitempty"`

	Kernels   []Kernel    `json:"kernels"`
	Streaming []Streaming `json:"streaming,omitempty"`
	Subjects  []Subject   `json:"subjects,omitempty"`
	Fleet     []Fleet     `json:"fleet,omitempty"`
}

// Kernel returns the named kernel entry, or nil.
func (r *Report) Kernel(name string) *Kernel {
	for i := range r.Kernels {
		if r.Kernels[i].Name == name {
			return &r.Kernels[i]
		}
	}
	return nil
}

// Write marshals the report as indented JSON.
func Write(path string, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads and validates a snapshot.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := new(Report)
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if len(r.Kernels) == 0 {
		return nil, fmt.Errorf("bench: %s: no kernel entries", path)
	}
	return r, nil
}

// Guard compares cur against base on the machine-stable metrics only —
// kernel allocs/op and B/op — and returns one violation string per kernel
// metric that grew by more than tol (0.2 = 20%). The guard is one-sided:
// shrinking is never a violation. Kernels present in only one report are
// skipped: the guard protects against regressions in what both snapshots
// measure, not schema drift. Absolute slacks of one allocation and
// bytesSlack bytes keep near-zero kernels (0 vs 1) from tripping on
// rounding.
func Guard(base, cur *Report, tol float64) []string {
	var bad []string
	for i := range base.Kernels {
		b := &base.Kernels[i]
		c := cur.Kernel(b.Name)
		if c == nil {
			continue
		}
		if c.AllocsPerOp > b.AllocsPerOp*(1+tol)+1 {
			bad = append(bad, fmt.Sprintf(
				"kernel %s: allocs/op %.1f exceeds baseline %.1f by more than %.0f%%",
				b.Name, c.AllocsPerOp, b.AllocsPerOp, tol*100))
		}
		if c.BytesPerOp > b.BytesPerOp*(1+tol)+bytesSlack {
			bad = append(bad, fmt.Sprintf(
				"kernel %s: B/op %.0f exceeds baseline %.0f by more than %.0f%%",
				b.Name, c.BytesPerOp, b.BytesPerOp, tol*100))
		}
	}
	return bad
}

// bytesSlack is the B/op guard's absolute slack: a benchmark's one-time
// allocations (a buffer sized on the first op, a runtime-internal map)
// are amortised over however many ops testing.Benchmark chose, which
// leaves a few stray bytes per op on an allocation-free kernel.
const bytesSlack = 64
