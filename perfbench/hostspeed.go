package main

import (
	"slices"
	"time"
)

// The shared VM this benchmark runs on changes speed by up to 1.8x over
// minutes, with little CPU steal to show for it: other tenants compete for
// the host's caches and memory, and the replay, which allocates ~57 MB per
// archive MB, slows with them. Ten runs then spread the raw analysis
// throughput by up to a third of its median. So every analysis is paired with a run of refKernel just
// before it — fixed work in this package, none of it the repository's
// code — and the gated throughput is the analysis time scaled by the
// kernel's slowdown against refNominal. A change to the program moves the
// analysis time and not the kernel's, so it moves the gated figure as it
// moves the raw one.

// refNominal is the kernel time the normalised throughput is scaled to,
// a round figure within the range of refKernel's per-run medians (29–41
// ms) on the 2-vCPU Xeon VM the benchmark was written on.
const refNominal = 40 * time.Millisecond

// refSink keeps the kernel's results alive so the compiler cannot drop
// its work.
var refSink uint64

type refNode struct {
	key  uint64
	next *refNode
	pad  [24]byte
}

// refKernel is the reference work, the same on every call. A quarter of
// its time is arithmetic on registers; the rest allocates a 150k-node
// linked list, fills a 50k-entry map from empty and sorts 50k keys. In
// probes beside the replay, that mix tracked the analysis's own slowdown
// best: arithmetic alone slowed by 20% where the analysis slowed by 70%,
// and allocation alone by up to 2x.
func refKernel() {
	s := uint64(0x5eed)
	for i := 0; i < 4_000_000; i++ {
		splitmix(&s)
	}
	m := make(map[uint64]*refNode)
	var head *refNode
	keys := make([]uint64, 0, 1<<16)
	for i := 0; i < 150_000; i++ {
		k := splitmix(&s)
		head = &refNode{key: k, next: head}
		if i%2 == 0 {
			m[k%50_000] = head
		}
		if i%3 == 0 {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	refSink += s + uint64(len(m)) + keys[0] + head.key
}
