package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"jportal"
	"jportal/internal/bytecode"
	"jportal/internal/core"
	"jportal/internal/fault"
	"jportal/internal/fleet"
	"jportal/internal/meta"
	"jportal/internal/scrub"
	"jportal/internal/seeded"
	"jportal/internal/workload"
)

// cmdChaos runs the fault-injection matrix over one or more subjects and
// prints the coverage-vs-fault-rate table: how much of each program's
// bytecode the pipeline still attributes as the input gets more hostile.
// The run is fully deterministic for a fixed -seed, so two invocations
// with the same flags print byte-identical reports — that property is what
// the CI smoke checks.
func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	scale := fs.Float64("scale", 0.25, "workload scale")
	seed := fs.Uint64("seed", 42, "fault-injection seed")
	subjects := fs.String("subjects", "fop,avrora,pmd", "comma-separated subject list")
	rates := fs.String("rates", "0,0.5,1,2", "comma-separated fault-rate multipliers")
	cores := fs.Int("cores", 0, "simulated cores (0 = default; fewer cores than threads forces migration)")
	workers := fs.Int("workers", 0, "offline-phase parallelism (0 = GOMAXPROCS)")
	fleetMode := fs.Bool("fleet", false, "inject network faults into an in-process ingest fleet instead of trace-decode faults")
	diskMode := fs.Bool("disk", false, "inject storage faults (ENOSPC, EIO, torn writes) under an in-process ingest server, then scrub and repair")
	sessions := fs.Int("sessions", 2, "sessions pushed per rate (-fleet/-disk)")
	src := fs.String("source", "", sourceFlagHelp()+" (-fleet/-disk)")
	fs.Parse(args)

	rateList, err := parseRates(*rates)
	if err != nil {
		return err
	}
	if *fleetMode && *diskMode {
		return fmt.Errorf("chaos: -fleet and -disk are mutually exclusive")
	}
	sweep := seeded.SweepConfig{SourceID: *src, Seed: *seed, Rates: rateList, Sessions: *sessions,
		Logf: func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }}
	if *fleetMode {
		return chaosArchives(os.Stdout, *subjects, *scale, sweep, fleet.ChaosSweep, fleet.FormatSweep)
	}
	if *diskMode {
		return chaosArchives(os.Stdout, *subjects, *scale, sweep, scrub.DiskSweep, scrub.FormatDiskSweep)
	}
	pcfg := core.DefaultPipelineConfig()
	pcfg.Workers = *workers

	for _, name := range strings.Split(*subjects, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		s, err := workload.Load(name, workload.Scale(*scale))
		if err != nil {
			return err
		}
		rcfg := jportal.DefaultRunConfig()
		rcfg.CollectOracle = false
		if *cores > 0 {
			rcfg.VM.Cores = *cores
		}
		rows, err := jportal.ChaosTable(s.Program, s.Threads, rcfg, pcfg,
			fault.DefaultMatrix(*seed), rateList)
		if err != nil {
			return err
		}
		fmt.Fprint(os.Stdout, jportal.FormatChaosTable(s.Name, *seed, rows))
		for _, r := range rows {
			if r.Coverage <= 0 {
				return fmt.Errorf("%s: coverage collapsed to %.4f at rate %.2f — degradation is not graceful",
					s.Name, r.Coverage, r.Rate)
			}
		}
	}
	return nil
}

// chaosArchives is `jportal chaos -fleet` and `-disk`: collect a chunked
// archive per subject, run the archive sweep over it (network faults under
// an in-process fleet, or storage faults under an ingest server followed
// by scrub-and-repair), print its table to w and fail on the first row that
// breaks the sweep's invariant. The tables report outcome invariants only,
// so they are byte-identical per seed — the same property the decode-fault
// table gives CI.
func chaosArchives[R interface{ Check() error }](w io.Writer, subjects string, scale float64, cfg seeded.SweepConfig,
	sweep func(seeded.SweepConfig) ([]R, error), format func(string, uint64, []R) string) error {
	for _, name := range strings.Split(subjects, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		archive, subj, cleanup, err := collectChaosArchive(name, scale, cfg.SourceID)
		if err != nil {
			return err
		}
		defer cleanup()
		cfg.ArchiveDir = archive
		rows, err := sweep(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, format(subj, cfg.Seed, rows))
		for _, r := range rows {
			if err := r.Check(); err != nil {
				return fmt.Errorf("%s: %w", subj, err)
			}
		}
	}
	return nil
}

// collectChaosArchive runs one subject and seals its chunked archive into
// a temp dir, returning the archive path and a cleanup func.
func collectChaosArchive(name string, scale float64, src string) (archive, subj string, cleanup func(), err error) {
	prog, threads, subj, err := loadTarget(name, scale)
	if err != nil {
		return "", "", nil, err
	}
	tmp, err := os.MkdirTemp("", "jportal-chaos-archive-")
	if err != nil {
		return "", "", nil, err
	}
	cleanup = func() { os.RemoveAll(tmp) }
	archive = filepath.Join(tmp, subj)
	cfg := jportal.DefaultRunConfig()
	cfg.CollectOracle = false
	cfg.Source = src
	var w *jportal.StreamArchiveWriter
	if _, err := jportal.RunWithSink(prog, threads, cfg,
		func(p *bytecode.Program, snap *meta.Snapshot, ncores int) (jportal.TraceSink, error) {
			var err error
			w, err = jportal.CreateStreamArchiveSource(archive, p, snap, ncores, cfg.Source)
			return w, err
		}); err != nil {
		cleanup()
		return "", "", nil, err
	}
	if err := w.Seal(); err != nil {
		cleanup()
		return "", "", nil, err
	}
	return archive, subj, cleanup, nil
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		r, err := strconv.ParseFloat(f, 64)
		if err != nil || r < 0 {
			return nil, fmt.Errorf("bad rate %q", f)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no rates given")
	}
	return out, nil
}
