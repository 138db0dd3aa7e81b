package main

import (
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"jportal"
	"jportal/internal/bytecode"
	"jportal/internal/core"
	"jportal/internal/meta"
	"jportal/internal/source"
	"jportal/internal/vm"
	"jportal/internal/workload"
)

// defaultBufLabel is the label whose simulated size equals the collector's
// default buffer (128 MiB), which loses nothing on h2.
const defaultBufLabel = 128 << 12

// workloads maps each workload to the collector buffer its archive is
// collected with, as a paper-label size in "MB" the way `exp table3` and
// experiments.MeasureAccuracy take it (simulated bytes = label <<
// (20 - experiments.BufScaleShift)).
var workloads = map[string]int{
	"replay-clean": defaultBufLabel,
	"replay-lossy": 64,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// inputs is what the program under test receives: the h2 program, the
// seeded thread specs, and the run and analysis configurations.
type inputs struct {
	o        options
	bufLabel int
	prog     *bytecode.Program
	threads  []vm.ThreadSpec
	rcfg     jportal.RunConfig
	pcfg     core.PipelineConfig
}

// newInputs generates the h2 subject. At defaultSeed the threads are the
// subject's own. Any other seed starts each of the four query workers
// directly with a seeded query count, 1 to 4 queries more than the
// subject's: the trace bytes and the analysis output change, while the
// workload keeps its character — a seed that reshuffled every query key
// instead moves recovery's allocation by up to 2.4x from one seed to the
// next, which no run length averages out.
func newInputs(o options, bufLabel int) (*inputs, error) {
	s, err := workload.Load("h2", workload.Scale(o.scale))
	if err != nil {
		return nil, err
	}
	in := &inputs{o: o, bufLabel: bufLabel, prog: s.Program, threads: s.Threads}
	if o.seed != defaultSeed {
		worker := s.Program.MethodByName("Engine.worker")
		if worker == nil {
			return nil, fmt.Errorf("h2 has no Engine.worker method")
		}
		queries := max(int32(90*o.scale), 1) // as workload.genH2 sizes it
		rng := uint64(o.seed)
		in.threads = make([]vm.ThreadSpec, len(s.Threads))
		for t := range in.threads {
			extra := 1 + int32(splitmix(&rng)%4)
			in.threads[t] = vm.ThreadSpec{Method: worker.ID, Args: []int32{int32(t), queries + extra}}
		}
	}
	in.rcfg = jportal.DefaultRunConfig()
	in.rcfg.CollectOracle = false
	in.rcfg.PT.BufBytes = uint64(bufLabel) << 8
	in.pcfg = core.DefaultPipelineConfig()
	in.pcfg.Workers = analysisWorkers
	return in, nil
}

func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// archive is the set-up's product: a sealed chunked archive of one run.
type archive struct {
	dir   string
	bytes int64 // stream.jpt size
	crc   uint64
	run   *jportal.RunResult
}

func (a *archive) mb() float64 { return float64(a.bytes) / 1e6 }

// setupReps is how many times set-up is repeated; setup_s is the median.
const setupReps = 9

// setup collects and archives the run setupReps times into dir, keeping
// the last archive. setup_s is the median CPU time (getrusage user+sys)
// of one set-up: set-up is single-threaded CPU work with no fsync, so CPU
// time counts all of it, and unlike wall time it does not swing with
// host CPU steal on a shared VM (the median wall time goes to the report).
// The vm and archive-write per-layer metrics are wall medians: the
// archive writer is wrapped so the time the collector spends in the sink
// is charged to the archive layer and the rest of the run to the VM.
func setup(in *inputs, dir string, rep *report) (*archive, error) {
	var walls, cpus, writes, collects []float64
	var a *archive
	for i := 0; i < setupReps; i++ {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		sink := &timedSink{}
		var run *jportal.RunResult
		var err error
		k := measure(func() {
			run, err = jportal.RunWithSink(in.prog, in.threads, in.rcfg,
				func(p *bytecode.Program, snap *meta.Snapshot, ncores int) (jportal.TraceSink, error) {
					t := time.Now()
					w, err := jportal.CreateStreamArchive(dir, p, snap, ncores)
					sink.w, sink.busy = w, time.Since(t)
					return sink, err
				})
			if err == nil {
				t := time.Now()
				err = sink.w.Seal()
				sink.busy += time.Since(t)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("collect and archive: %w", err)
		}
		walls = append(walls, k.wall.Seconds())
		cpus = append(cpus, k.cpu.Seconds())
		writes = append(writes, sink.busy.Seconds())
		collects = append(collects, (k.wall - sink.busy).Seconds())
		a = &archive{dir: dir, run: run}
	}
	raw, err := os.ReadFile(filepath.Join(dir, jportal.StreamFileName))
	if err != nil {
		return nil, err
	}
	a.bytes = int64(len(raw))
	a.crc = crc64.Checksum(raw, crcTable)
	rep.set("setup_s", "s", median(cpus))
	rep.note("set-up wall median %.4f s over %d set-ups", median(walls), setupReps)
	rep.set("vm.collect_s", "s", median(collects))
	rep.set("archive.write_s", "s", median(writes))
	rep.set("archive.write_mb", "MB", a.mb())
	rep.note("archive %d bytes, crc64 %#016x", a.bytes, a.crc)
	checkArchivePin(in, a, rep)
	return a, nil
}

// timedSink forwards to the archive writer and accumulates the time spent
// in it.
type timedSink struct {
	w    *jportal.StreamArchiveWriter
	busy time.Duration
}

func (s *timedSink) AddSideband(recs []vm.SwitchRecord) {
	t := time.Now()
	s.w.AddSideband(recs)
	s.busy += time.Since(t)
}

func (s *timedSink) Watermark(core int, w uint64) {
	t := time.Now()
	s.w.Watermark(core, w)
	s.busy += time.Since(t)
}

func (s *timedSink) Feed(core int, items []source.Item) error {
	t := time.Now()
	err := s.w.Feed(core, items)
	s.busy += time.Since(t)
	return err
}

func (s *timedSink) Drain() error {
	t := time.Now()
	err := s.w.Drain()
	s.busy += time.Since(t)
	return err
}

func (s *timedSink) AddBlobs(blobs []*meta.CompiledMethod) error {
	t := time.Now()
	err := s.w.AddBlobs(blobs)
	s.busy += time.Since(t)
	return err
}

// reference runs the same inputs through the batch path — jportal.Run
// with the oracle attached, then the in-memory jportal.Analyze — which is
// what every archive replay must reproduce step for step.
func reference(in *inputs) (*jportal.RunResult, *jportal.Analysis, error) {
	rcfg := in.rcfg
	rcfg.CollectOracle = true
	run, err := jportal.Run(in.prog, in.threads, rcfg)
	if err != nil {
		return nil, nil, fmt.Errorf("reference run: %w", err)
	}
	an, err := jportal.Analyze(in.prog, run, in.pcfg)
	if err != nil {
		return nil, nil, fmt.Errorf("reference analysis: %w", err)
	}
	return run, an, nil
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// stepsHash digests per-thread step streams: thread count, then for each
// thread its length and every step's method, pc, timestamp and recovered
// flag.
func stepsHash(threads [][]core.Step) uint64 {
	var crc uint64
	buf := make([]byte, 0, 64<<10)
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf = append(buf, byte(v>>(8*i)))
		}
	}
	put(uint64(len(threads)))
	for _, steps := range threads {
		put(uint64(len(steps)))
		for _, s := range steps {
			put(uint64(uint32(s.Method))<<32 | uint64(uint32(s.PC)))
			put(s.TSC)
			if s.Recovered {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
			if len(buf) > 60<<10 {
				crc = crc64.Update(crc, crcTable, buf)
				buf = buf[:0]
			}
		}
	}
	return crc64.Update(crc, crcTable, buf)
}

func analysisSteps(an *jportal.Analysis) [][]core.Step {
	out := make([][]core.Step, len(an.Threads))
	for i, t := range an.Threads {
		out[i] = t.Steps
	}
	return out
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is the nearest-rank percentile of v (p in (0, 1]).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if p == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(float64(len(s))*p)) - 1
	return s[min(max(i, 0), len(s)-1)]
}
