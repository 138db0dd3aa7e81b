package main

import (
	"strings"
	"testing"

	"jportal/internal/fleet"
	"jportal/internal/scrub"
	"jportal/internal/seeded"
)

// sweepTwice runs one archive sweep through the shared per-subject driver
// twice with the same seed and requires byte-identical tables. It returns
// the table and the first run's rows; the driver itself fails the run on
// any row that breaks the sweep's invariant.
func sweepTwice[R interface{ Check() error }](t *testing.T, sweep func(seeded.SweepConfig) ([]R, error),
	format func(string, uint64, []R) string) (string, []R) {
	t.Helper()
	cfg := seeded.SweepConfig{Seed: 7, Rates: []float64{0, 1}, Sessions: 1, Logf: t.Logf}
	var tables [2]strings.Builder
	var first []R
	for i := range tables {
		capture := func(subj string, seed uint64, rows []R) string {
			if first == nil {
				first = rows
			}
			return format(subj, seed, rows)
		}
		if err := chaosArchives(&tables[i], "fop", 0.1, cfg, sweep, capture); err != nil {
			t.Fatalf("run %d: %v\n%s", i+1, err, tables[i].String())
		}
	}
	if tables[0].String() != tables[1].String() {
		t.Fatalf("sweep table differs across runs with the same seed:\n--- run 1\n%s--- run 2\n%s",
			tables[0].String(), tables[1].String())
	}
	if len(first) != len(cfg.Rates) {
		t.Fatalf("%d rows for %d rates\n%s", len(first), len(cfg.Rates), tables[0].String())
	}
	return tables[0].String(), first
}

func TestChaosFleetDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("pushes archives through fault-injected in-process fleets")
	}
	table, rows := sweepTwice(t, fleet.ChaosSweep, fleet.FormatSweep)
	// Rate 0: pass-through network, so every push completes byte-identical.
	if r := rows[0]; r.Completed != r.Sessions || r.Identical != r.Sessions {
		t.Fatalf("rate 0: %d/%d completed, %d/%d identical\n%s", r.Completed, r.Sessions, r.Identical, r.Sessions, table)
	}
}

func TestChaosDiskDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("pushes archives through fault-injected ingest servers")
	}
	table, rows := sweepTwice(t, scrub.DiskSweep, scrub.FormatDiskSweep)
	// Rate 0: pass-through storage, so every upload completes
	// byte-identical and the planted casualties are repaired/quarantined.
	r := rows[0]
	if r.Completed != r.Sessions || r.Identical != r.Sessions || r.Repaired != 1 || r.Quarantined != 1 {
		t.Fatalf("rate 0: completed %d identical %d of %d, repaired %d, quarantined %d\n%s",
			r.Completed, r.Identical, r.Sessions, r.Repaired, r.Quarantined, table)
	}
}
