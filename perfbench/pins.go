package main

// pin holds what the default seed at the default scale must produce for
// one collector buffer: the crc64 of the archive's stream.jpt and the
// stepsHash of its analysis.
type pin struct {
	archiveCRC uint64
	stepsHash  uint64
}

// pins is keyed by the workload's buffer label.
var pins = map[int]pin{
	defaultBufLabel: {archiveCRC: 0x6ae97f13e8e0bc39, stepsHash: 0x853b67f54c1345c3},
	64:              {archiveCRC: 0xf4dbf3455a581360, stepsHash: 0x8f0475fe6a9bfa4d},
}

func pinned(in *inputs) (pin, bool) {
	p, ok := pins[in.bufLabel]
	return p, ok && in.o.scale == defaultScale
}

// checkArchivePin checks the archive against the pin: equal at the default
// seed, different at any other seed (the seed must reach the trace bytes).
func checkArchivePin(in *inputs, a *archive, rep *report) {
	p, ok := pinned(in)
	if !ok {
		rep.note("no archive pin at scale %g", in.o.scale)
		return
	}
	if in.o.seed == defaultSeed {
		rep.check(a.crc == p.archiveCRC, "archive crc64 %#016x, pinned %#016x", a.crc, p.archiveCRC)
	} else {
		rep.check(a.crc != p.archiveCRC, "seed %d produced the default seed's archive bytes", in.o.seed)
	}
}

// checkStepsPin checks the reference analysis against the pin at the
// default seed.
func checkStepsPin(in *inputs, h uint64, rep *report) {
	if p, ok := pinned(in); ok && in.o.seed == defaultSeed {
		rep.check(h == p.stepsHash, "steps hash %#016x, pinned %#016x", h, p.stepsHash)
	}
}
