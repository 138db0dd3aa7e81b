package main

import (
	"sort"

	"jportal"
	"jportal/internal/core"
	"jportal/internal/experiments"
	"jportal/internal/metrics"
	"jportal/internal/workload"
)

// breakdown scores an analysis against the run's oracle exactly as
// experiments.MeasureAccuracy does (Figure 7 overall similarity, Table 3
// decomposition): per-thread metrics.ComputeBreakdownTimed, averaged with
// weights equal to the thread's truth length. It mirrors the unexported
// experiments.scoreAnalysis line for line, so the cross-check below can
// demand bit-identical results.
func breakdown(run *jportal.RunResult, an *jportal.Analysis) metrics.Breakdown {
	var agg metrics.Breakdown
	var wsum float64
	for _, t := range an.Threads {
		if t.Thread >= run.Oracle.NumThreads() {
			continue
		}
		truth := run.Oracle.TimedKeys(t.Thread)
		if len(truth) == 0 {
			continue
		}
		lost := lostIntervals(t)
		var decoded, recovered []metrics.TimedKey
		for _, st := range t.Steps {
			k := metrics.TimedKey{Key: metrics.StepKey(int32(st.Method), st.PC), TSC: st.TSC}
			if st.Recovered {
				recovered = append(recovered, k)
			} else {
				decoded = append(decoded, k)
			}
		}
		b := metrics.ComputeBreakdownTimed(truth, lost, decoded, recovered, 8192)
		w := float64(len(truth))
		agg.PMD += b.PMD * w
		agg.PDC += b.PDC * w
		agg.DA += b.DA * w
		agg.RA += b.RA * w
		agg.PD += b.PD * w
		agg.PR += b.PR * w
		agg.Overall += b.Overall * w
		wsum += w
	}
	if wsum > 0 {
		agg.PMD /= wsum
		agg.PDC /= wsum
		agg.DA /= wsum
		agg.RA /= wsum
		agg.PD /= wsum
		agg.PR /= wsum
		agg.Overall /= wsum
	}
	return agg
}

// lostIntervals is a thread's sorted, merged loss intervals (the gaps
// before its segments, excluding desyncs and zero-length gaps).
func lostIntervals(t *core.ThreadResult) []metrics.Interval {
	var ivs []metrics.Interval
	for _, f := range t.Flows {
		g := f.Seg.GapBefore
		if g == nil || g.Desync || g.Duration() == 0 {
			continue
		}
		ivs = append(ivs, metrics.Interval{Start: g.Start, End: g.End})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	var merged []metrics.Interval
	for _, iv := range ivs {
		if n := len(merged); n > 0 && iv.Start <= merged[n-1].End {
			merged[n-1].End = max(merged[n-1].End, iv.End)
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}

// recoveryAccuracy is Table 3's RA, except that a run which lost nothing
// (PMD = 0) scores 1: there was nothing to recover, and the metric must
// not read 0 on a lossless archive.
func recoveryAccuracy(b metrics.Breakdown) float64 {
	if b.PMD == 0 {
		return 1
	}
	return b.RA
}

// scoreInto sets accuracy and recovery_accuracy from an analysis of the
// workload's archive. At the default seed it cross-checks both against
// experiments.MeasureAccuracy for the same subject, scale and buffer
// label.
func scoreInto(in *inputs, run *jportal.RunResult, an *jportal.Analysis, rep *report) error {
	b := breakdown(run, an)
	rep.set("accuracy", "frac", b.Overall)
	rep.set("recovery_accuracy", "frac", recoveryAccuracy(b))
	rep.note("breakdown: overall %.6f PMD %.6f DA %.6f RA %.6f", b.Overall, b.PMD, b.DA, b.RA)
	if in.o.seed != defaultSeed {
		return nil
	}
	row, err := experiments.MeasureAccuracy("h2", experiments.Options{
		Scale: workload.Scale(in.o.scale), BufMBLabel: in.bufLabel, Workers: analysisWorkers,
	})
	if err != nil {
		return err
	}
	same := row.Overall == b.Overall && row.RA == b.RA && row.PMD == b.PMD
	rep.check(same, "accuracy cross-check: MeasureAccuracy overall %v RA %v PMD %v, benchmark %v %v %v",
		row.Overall, row.RA, row.PMD, b.Overall, b.RA, b.PMD)
	if same {
		rep.note("accuracy equals experiments.MeasureAccuracy(h2, scale %g, buf %d)", in.o.scale, in.bufLabel)
	}
	return nil
}
