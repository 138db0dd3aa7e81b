// Command perfbench is the repository benchmark. It collects the h2
// subject into a chunked archive (the set-up), then, for the chosen
// workload, replays that archive through the streaming analysis in a
// closed loop for a fixed number of seconds. Every operation's output is
// checked. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with -trace 1 the stages are composed serially under span timers, the
// archive is pushed over loopback into an in-process ingest server, and
// the per-layer metrics are reported instead. Lines before the last are a
// human-readable report. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed runs the h2 subject exactly as workload.Load generates it;
// the pinned hashes and the accuracy cross-check apply at this seed.
const defaultSeed = 0

// defaultScale is the h2 workload scale every committed figure uses.
const defaultScale = 1.0

// procs is the benchmark's GOMAXPROCS, and analysisWorkers the analysis's
// Workers. The whole process runs its Go code on one OS thread at a time:
// on a shared VM, a two-thread analysis on two vCPUs measures the host's
// scheduling of both vCPUs, and idle processors pick up spinning and
// idle-priority GC work that is charged to the process's CPU time. Under a
// bursty CPU hog in the VM, five runs spread the analysis throughput by
// 0.165 with two processors and by 0.055 with one. One processor also
// turns off the session's pipelined stages
// (core.PipelineConfig.EffectivePipelined).
const (
	procs           = 1
	analysisWorkers = 1
)

// pushSessions is how many sessions each traced push runs concurrently.
const pushSessions = 2

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	workDir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's metrics, output checks and notes.
type report struct {
	res   result
	notes []string
	out   io.Writer
}

func newReport(out io.Writer) *report {
	return &report{res: result{Correct: true, Metrics: map[string]metric{}}, out: out}
}

func (r *report) set(name, unit string, v float64) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// check records a failed output check; the run then reports correct=false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.res.Correct = false
		r.notes = append(r.notes, "CHECK FAILED: "+fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// endToEnd and perLayer name the metrics an untraced and a traced run
// report, in BENCHMARK.json's order.
var (
	endToEnd = []string{
		"setup_s", "norm_trace_mb_per_s", "alloc_mb_per_mb", "peak_rss_mb", "accuracy",
	}
	perLayer = []string{
		"vm.collect_s", "vm.trace_slowdown_x", "archive.write_s", "archive.write_mb",
		"archive.read_s", "core.build_s",
		"trace.carve_s", "trace.items_in", "trace.items_out", "trace.peak_buffered_items",
		"source.decode_s", "source.events", "source.desyncs",
		"core.tokenize_s", "core.tokens", "core.segments",
		"core.match_s", "core.matched_nodes", "core.match_skipped",
		"core.recover_index_s",
		"core.recover_search_s", "core.holes", "core.holes_filled", "core.candidates_tried",
		"core.merge_s", "core.steps",
		"session.feed_s", "session.drain_s", "session.close_s",
		"trace.unattributed_frac", "trace.overhead_frac",
		"client.send_blocked_s", "client.ack_p50_ms", "client.ack_p99_ms", "client.frames", "client.nacks", "client.reconnects",
		"ingest.chunks_ingested", "ingest.bytes_ingested", "ingest.state_persist_errors", "ingest.seal_s",
	}
)

// print writes the human-readable report — every metric measured, in
// name order — and, as the last line, the JSON result carrying exactly
// the names of the run's mode.
func (r *report) print(names []string) error {
	for _, n := range r.notes {
		fmt.Fprintln(r.out, "# "+n)
	}
	all := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		all = append(all, n)
	}
	sort.Strings(all)
	for _, n := range all {
		m := r.res.Metrics[n]
		fmt.Fprintf(r.out, "# %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	out := r.res
	out.Metrics = make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := r.res.Metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		out.Metrics[n] = m
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(r.out, string(b))
	return err
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed (perturbs the h2 thread inputs)")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.Float64Var(&o.scale, "scale", defaultScale, "h2 workload scale")
	fs.StringVar(&o.workDir, "work", filepath.Join(".bench_build", "work"), "scratch directory for archives")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 || o.scale <= 0 {
		return o, errors.New("seconds and scale must be positive")
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	return o, nil
}

// run executes one benchmark invocation and writes its report to out.
func run(args []string, out io.Writer) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.workDir, o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rep := newReport(out)
	rep.note("workload %s seed %d scale %g seconds %g trace %v", o.workload, o.seed, o.scale, o.seconds, o.trace)
	in, err := newInputs(o, workloads[o.workload])
	if err != nil {
		return err
	}
	arch, err := setup(in, filepath.Join(dir, "archive"), rep)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	if o.trace {
		err = tracedRun(in, arch, dir, deadline, rep)
	} else {
		err = replayRun(in, arch, deadline, rep)
	}
	if err != nil {
		return err
	}
	if o.trace {
		return rep.print(perLayer)
	}
	return rep.print(endToEnd)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
