package vm

import (
	"errors"

	"jportal/internal/seeded"
)

// Run executes the given threads to completion under the round-robin
// multi-core scheduler and returns the run's statistics.
//
// Threads migrate freely across cores (whichever core is least advanced
// picks up the next runnable thread), so a thread's trace is spread over
// multiple per-core PT buffers — the exact situation §6 of the paper
// resolves with thread-switch sideband records. Those records are collected
// here, with a deterministic timestamp jitter modelling the inconsistency
// between scheduler clocks and trace timestamps (§7.2).
func (m *Machine) Run(specs []ThreadSpec) (*Stats, error) {
	if len(specs) == 0 {
		return nil, errors.New("vm: no threads to run")
	}
	if m.threads != nil {
		return nil, errors.New("vm: machine already ran")
	}
	for i, spec := range specs {
		meth := m.Prog.Method(spec.Method)
		if meth == nil {
			return nil, errors.New("vm: unknown thread entry method")
		}
		if len(spec.Args) != meth.NArgs {
			return nil, errors.New("vm: thread entry arity mismatch")
		}
		m.Stats.MethodCalls[meth.ID]++
		m.threads = append(m.threads, &thread{
			id:       i,
			frames:   []frame{{method: meth, locals: newLocals(meth, spec.Args)}},
			lastCore: -1,
		})
	}

	// runq is the FIFO of runnable threads.
	runq := make([]*thread, len(m.threads))
	copy(runq, m.threads)
	m.lastSideband = make([]uint64, len(m.cores))

	jitter := func(core int, tsc uint64, tid int) uint64 {
		j := m.Cfg.SwitchJitterCycles
		if j == 0 {
			return tsc
		}
		h := seeded.Mix(uint64(core)<<32 ^ tsc ^ uint64(tid)*0x9e37)
		d := h % (2 * j) // uniform in [0, 2j)
		if tsc+d < j {
			return 0
		}
		return tsc + d - j // uniform in [tsc-j, tsc+j)
	}

	record := func(core int, tsc uint64, tid int) {
		ts := jitter(core, tsc, tid)
		if ts < m.lastSideband[core] {
			ts = m.lastSideband[core]
		}
		m.lastSideband[core] = ts
		m.sideband = append(m.sideband, SwitchRecord{Core: core, TSC: ts, Thread: tid})
	}

	for len(runq) > 0 {
		t := runq[0]
		runq = runq[1:]
		// Pick the least-advanced core (parallel wall-clock interleaving)
		// unless the thread's previous core is nearly as good — CPU
		// affinity, which keeps a thread's trace concentrated the way
		// Linux does. Every eighth quantum the thread migrates anyway,
		// so multi-core reassembly (§6) stays exercised.
		core := 0
		for c := 1; c < len(m.cores); c++ {
			if m.cores[c].clock < m.cores[core].clock {
				core = c
			}
		}
		t.slices++
		if t.slices%8 != 0 && t.lastCore >= 0 &&
			m.cores[t.lastCore].clock <= t.endTSC {
			// The previous core is free at the thread's resume time:
			// stay (the thread resumes at endTSC regardless of core).
			core = t.lastCore
		}
		t.lastCore = core

		cs := &m.cores[core]
		// A thread resumes no earlier than where it left off on its
		// previous core.
		if t.endTSC > cs.clock {
			cs.clock = t.endTSC
		}
		cs.used = true
		if m.Tracer != nil {
			m.Tracer.SwitchMark(core, cs.clock)
			// Real PT emits TIP.PGE carrying the resume IP when a traced
			// process is scheduled in; the offline decoder re-anchors on
			// it.
			m.Tracer.PGE(core, m.currentIP(t), cs.clock)
		}
		record(core, cs.clock, t.id)

		sliceStart := cs.clock
		deadline := cs.clock + m.Cfg.TimesliceCycles
		for !t.done && cs.clock < deadline {
			if err := m.step(t, core); err != nil {
				return nil, err
			}
		}
		m.Stats.ActiveCycles += cs.clock - sliceStart
		if m.Tracer != nil {
			// Sched-out: TIP.PGD at the point tracing pauses.
			m.Tracer.PGD(core, m.currentIP(t), cs.clock)
		}
		// Record the sched-out so offline splitting knows the core went
		// idle (Thread = -1): a loss episode continuing past this point
		// can no longer be losing this thread's data.
		record(core, cs.clock, -1)
		if m.Tracer != nil {
			// The exporter drains every core's buffer in real time,
			// including cores currently idle; advance them all to the
			// frontier so backlogs clear and loss episodes close at
			// their true end times.
			for c := range m.cores {
				m.Tracer.Advance(c, cs.clock)
			}
		}
		t.endTSC = cs.clock
		if !t.done {
			runq = append(runq, t)
		}
	}

	for c := range m.cores {
		if m.cores[c].used && m.Tracer != nil {
			m.Tracer.Advance(c, m.cores[c].clock)
		}
	}

	m.Stats.CoreCycles = make([]uint64, len(m.cores))
	for c := range m.cores {
		m.Stats.CoreCycles[c] = m.cores[c].clock
		if m.cores[c].clock > m.Stats.Cycles {
			m.Stats.Cycles = m.cores[c].clock
		}
	}
	m.Stats.ThreadResults = make([]int32, len(m.threads))
	for i, t := range m.threads {
		m.Stats.ThreadResults[i] = t.result
	}
	return &m.Stats, nil
}

// currentIP returns the native instruction pointer the thread is at: its
// compiled code position in JIT mode, the next opcode's template entry when
// interpreting, or the thread-exit stub when finished.
func (m *Machine) currentIP(t *thread) uint64 {
	if t.done || len(t.frames) == 0 {
		return m.stubs.ThreadExit.Start
	}
	f := &t.frames[len(t.frames)-1]
	if f.jit {
		return f.nm.AddrOf(f.ctx, f.pc)
	}
	return m.templates.Entry(f.method.Code[f.pc].Op)
}

// FinalTSC returns the maximum core clock (valid after Run).
func (m *Machine) FinalTSC() uint64 { return m.Stats.Cycles }
