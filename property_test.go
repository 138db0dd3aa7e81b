package jportal

import (
	"fmt"
	"testing"

	"jportal/internal/bytecode"
	"jportal/internal/cfg"
	"jportal/internal/core"
	"jportal/internal/metrics"
	"jportal/internal/seeded"
	"jportal/internal/vm"
)

// randProgram builds a small, always-terminating random program: a few leaf
// methods (arithmetic + a branch diamond), a mid method looping over leaf
// calls, and a main driving the mid method. Deterministic in seed.
func randProgram(seed uint64) *bytecode.Program {
	rng := seeded.NewStream(seed)
	intn := rng.Intn
	arith := []bytecode.Opcode{
		bytecode.IADD, bytecode.ISUB, bytecode.IMUL,
		bytecode.IAND, bytecode.IOR, bytecode.IXOR,
	}
	conds := []bytecode.Opcode{
		bytecode.IFEQ, bytecode.IFNE, bytecode.IFLT,
		bytecode.IFGE, bytecode.IFGT, bytecode.IFLE,
	}

	p := &bytecode.Program{Entry: bytecode.NoMethod}
	nLeaves := 2 + intn(4)
	var leaves []bytecode.MethodID
	for i := 0; i < nLeaves; i++ {
		b := bytecode.NewBuilder("R", fmt.Sprintf("leaf%d", i), 2)
		b.ReturnsValue()
		for j := 0; j < 1+intn(3); j++ {
			b.Iload(0).Iload(1).Op(arith[intn(len(arith))]).Istore(0)
		}
		then := fmt.Sprintf("t%d", i)
		join := fmt.Sprintf("j%d", i)
		b.Iload(0)
		b.If(conds[intn(len(conds))], then)
		b.Iload(1).Iconst(int32(1 + intn(5))).Iadd().Istore(1)
		b.Goto(join)
		b.Label(then)
		b.Iload(1).Iconst(int32(1 + intn(5))).Ixor().Istore(1)
		b.Label(join)
		b.Iload(0).Iload(1).Iadd().Ireturn()
		leaves = append(leaves, p.AddMethod(b.MustBuild()).ID)
	}

	iters := 30 + intn(120)
	b := bytecode.NewBuilder("R", "mid", 1)
	b.ReturnsValue()
	b.Iconst(0).Istore(1)
	b.Iconst(0).Istore(2)
	b.Label("loop")
	b.Iload(2).Iconst(int32(iters)).If(bytecode.IF_ICMPGE, "done")
	for c := 0; c < 1+intn(2); c++ {
		b.Iload(2).Iload(1).InvokeStatic(leaves[intn(len(leaves))])
		b.Iload(1).Iadd().Istore(1)
	}
	b.Iinc(2, 1)
	b.Goto("loop")
	b.Label("done")
	b.Iload(1).Ireturn()
	mid := p.AddMethod(b.MustBuild()).ID

	mb := bytecode.NewBuilder("R", "main", 0)
	mb.Iconst(int32(2 + intn(5)))
	mb.InvokeStatic(mid)
	mb.Pop()
	mb.Return()
	p.Entry = p.AddMethod(mb.MustBuild()).ID
	return p
}

// assertFeasibleFlow checks the structural soundness of a reconstruction:
// every consecutive step pair must be connected in the ICFG (fallthrough,
// branch, switch, call, return or throw edge), or be a re-entry the
// context-insensitive formulation permits.
func assertFeasibleFlow(t *testing.T, prog *bytecode.Program, steps []core.Step) {
	t.Helper()
	g := cfg.BuildICFG(prog, cfg.DefaultOptions())
	bad := 0
	for i := 1; i < len(steps); i++ {
		from := g.Node(steps[i-1].Method, steps[i-1].PC)
		to := g.Node(steps[i].Method, steps[i].PC)
		ok := false
		for _, e := range g.Succs[from] {
			if e.To == to {
				ok = true
				break
			}
		}
		if !ok {
			bad++
			if bad <= 3 {
				t.Errorf("infeasible transition %d: m%d@%d -> m%d@%d",
					i, steps[i-1].Method, steps[i-1].PC, steps[i].Method, steps[i].PC)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d infeasible transitions of %d steps", bad, len(steps))
	}
}

// losslessC1Config builds a run configuration with no data loss, no
// scheduler jitter and the C2 tier disabled — under which reconstruction
// has no modelled imprecision left and must be exact.
func losslessC1Config() RunConfig {
	cfg := DefaultRunConfig()
	cfg.VM.C2Threshold = 1 << 60
	cfg.VM.SwitchJitterCycles = 0
	cfg.VM.Cores = 1
	cfg.PT.BufBytes = 64 << 20
	cfg.PT.DrainBytesPerKCycle = 1 << 20
	return cfg
}

func TestPropertyExactReconstructionUnderC1(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			prog := randProgram(seed)
			if err := bytecode.Verify(prog); err != nil {
				t.Fatalf("generated program invalid: %v", err)
			}
			run, err := Run(prog, nil, losslessC1Config())
			if err != nil {
				t.Fatal(err)
			}
			an, err := Analyze(prog, run, core.DefaultPipelineConfig())
			if err != nil {
				t.Fatal(err)
			}
			th := an.Threads[0]
			truth := run.Oracle.Keys(0)
			if len(th.Steps) != len(truth) {
				t.Fatalf("step count %d != truth %d", len(th.Steps), len(truth))
			}
			var got []metrics.Key
			for _, s := range th.Steps {
				got = append(got, metrics.StepKey(int32(s.Method), s.PC))
			}
			sim := metrics.Similarity(got, truth, 4096)
			if sim < 0.98 {
				t.Errorf("similarity %.4f under lossless C1 (want ~1)", sim)
			}
			assertFeasibleFlow(t, prog, th.Steps)
		})
	}
}

func TestPropertyPDAAtLeastAsAccurate(t *testing.T) {
	// On lossless C1 runs, PDA reconstruction must never be less similar
	// to the truth than the NFA's.
	for seed := uint64(20); seed <= 26; seed++ {
		prog := randProgram(seed)
		run, err := Run(prog, nil, losslessC1Config())
		if err != nil {
			t.Fatal(err)
		}
		score := func(useCtx bool) float64 {
			pcfg := core.DefaultPipelineConfig()
			pcfg.UseCallContext = useCtx
			an, err := Analyze(prog, run, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			var got []metrics.Key
			for _, s := range an.Threads[0].Steps {
				got = append(got, metrics.StepKey(int32(s.Method), s.PC))
			}
			return metrics.Similarity(got, run.Oracle.Keys(0), 4096)
		}
		nfa, pda := score(false), score(true)
		if pda+1e-9 < nfa {
			t.Errorf("seed %d: PDA %.4f < NFA %.4f", seed, pda, nfa)
		}
	}
}

func TestPropertyDeterministicAnalysis(t *testing.T) {
	prog := randProgram(99)
	run, err := Run(prog, nil, losslessC1Config())
	if err != nil {
		t.Fatal(err)
	}
	an1, err := Analyze(prog, run, core.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	an2, err := Analyze(prog, run, core.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, b := an1.Threads[0].Steps, an2.Threads[0].Steps
	if len(a) != len(b) {
		t.Fatal("analysis nondeterministic in length")
	}
	for i := range a {
		if a[i].Method != b[i].Method || a[i].PC != b[i].PC {
			t.Fatalf("analysis nondeterministic at step %d", i)
		}
	}
}

// Quick guard that the JIT execution/emission engine never panics across
// many random programs at full tiering.
func TestPropertyRandomProgramsRunTraced(t *testing.T) {
	for seed := uint64(100); seed < 130; seed++ {
		prog := randProgram(seed)
		cfg := DefaultRunConfig()
		cfg.CollectOracle = false
		run, err := Run(prog, nil, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := Analyze(prog, run, core.DefaultPipelineConfig()); err != nil {
			t.Fatalf("seed %d analyze: %v", seed, err)
		}
		_ = vm.DefaultConfig()
	}
}
