package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"jportal"
)

// opCost is one operation's wall time, CPU time (getrusage user+sys) and
// heap bytes allocated.
type opCost struct {
	wall, cpu time.Duration
	alloc     uint64
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (getrusage maxrss, KiB on
// Linux) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) * 1024 / 1e6
}

// measure runs op between a forced GC (so each operation starts from the
// same heap) and the three readings.
func measure(op func()) opCost {
	runtime.GC()
	a0, c0, t0 := heapAllocs(), cpuTime(), time.Now()
	op()
	wall := time.Since(t0)
	return opCost{wall: wall, cpu: cpuTime() - c0, alloc: heapAllocs() - a0}
}

// replayRun is the untraced replay workload: a closed loop of whole-archive
// analyses (jportal.AnalyzeStreamArchive: archive reader → Session →
// Analysis) until the deadline, after one untimed warm-up. Each analysis
// is one operation, run right after refKernel (hostspeed.go); it fails
// on an error, a timed-out report or a step stream that differs from the
// in-memory batch analysis of the same run.
func replayRun(in *inputs, arch *archive, deadline time.Time, rep *report) error {
	mb := arch.mb()
	var warmHash uint64
	var hashes []uint64
	var last *jportal.Analysis
	var walls, norm, refs []float64 // ms: analysis wall, scaled to refNominal, kernel wall
	var cpu, alloc []float64        // CPU s and heap MB per archive MB
	failed := 0
	op := func() (*jportal.Analysis, bool) {
		_, an, err := jportal.AnalyzeStreamArchive(arch.dir, in.pcfg, false, 0)
		if err != nil {
			rep.check(false, "replay: %v", err)
			return nil, false
		}
		if an.Report.TimedOut {
			rep.check(false, "replay timed out")
			return nil, false
		}
		return an, true
	}
	refKernel() // warm-up
	if an, ok := op(); ok {
		warmHash = stepsHash(analysisSteps(an))
	}
	for len(walls) == 0 || time.Now().Before(deadline) {
		ref := measure(refKernel)
		var an *jportal.Analysis
		ok := false
		k := measure(func() { an, ok = op() })
		wall := float64(k.wall) / float64(time.Millisecond)
		walls = append(walls, wall)
		refs = append(refs, float64(ref.wall)/float64(time.Millisecond))
		norm = append(norm, wall*float64(refNominal)/float64(ref.wall))
		cpu = append(cpu, k.cpu.Seconds()/mb)
		alloc = append(alloc, float64(k.alloc)/1e6/mb)
		if !ok {
			failed++
			continue
		}
		hashes = append(hashes, stepsHash(analysisSteps(an)))
		last = an
	}
	rep.set("norm_trace_mb_per_s", "MB/s", mb/(median(norm)/1000))
	rep.set("trace_mb_per_s", "MB/s", mb/(median(walls)/1000))
	rep.set("ref_kernel_ms", "ms", median(refs))
	rep.set("cpu_s_per_mb", "s/MB", median(cpu))
	rep.set("alloc_mb_per_mb", "MB/MB", median(alloc))
	rep.set("peak_rss_mb", "MB", peakRSSMB())
	rep.set("op_p50_ms", "ms", median(walls))
	rep.set("op_p90_ms", "ms", percentile(walls, 0.9))
	rep.note("%d analyses of %.3f MB, p90 over %d samples; host at %.2fx the reference speed (refKernel %.1f ms, nominal %v)",
		len(walls), mb, len(walls), float64(refNominal)/float64(time.Millisecond)/median(refs), median(refs), refNominal)

	// Output checks and scoring run after the timed loop (and after
	// peak_rss_mb was read): they hold the oracle, which the set-up
	// deliberately does not collect.
	run, ref, err := reference(in)
	if err != nil {
		return err
	}
	refHash := stepsHash(analysisSteps(ref))
	checkStepsPin(in, refHash, rep)
	rep.check(warmHash == refHash, "warm-up analysis: steps hash %#016x, in-memory jportal.Analyze %#016x", warmHash, refHash)
	for i, h := range hashes {
		if h != refHash {
			failed++
			rep.check(false, "analysis %d: steps hash %#016x, in-memory jportal.Analyze %#016x", i, h, refHash)
		}
	}
	rep.res.Attempted = len(walls)
	rep.res.Failed = failed
	rep.note("failed_frac %d/%d = %g", failed, len(walls), float64(failed)/float64(len(walls)))
	if last == nil {
		rep.check(false, "no analysis succeeded")
		return nil
	}
	return scoreInto(in, run, last, rep)
}
