// Package fleet shards jportal's ingest tier across multiple nodes: a
// coordinator tracks the live member set under heartbeat leases, a
// consistent-hash ring maps session ids onto members, and clients that
// HELLO the wrong process are REDIRECTed (ingest protocol 3) to the
// session's owner. All nodes archive into one shared durable data
// directory, so when a member dies the replacement owner resumes its
// sessions from the on-disk ingest.state frontier and the final archives
// stay byte-identical to an uninterrupted single-node run (DESIGN.md §14).
package fleet

import (
	"hash/fnv"
	"sort"

	"jportal/internal/seeded"
)

// vnodesPerNode is the number of ring positions each member occupies.
// 64 keeps the per-node share within a few percent of even for small
// fleets while the ring stays tiny (a handful of KB for dozens of nodes).
const vnodesPerNode = 64

type vnode struct {
	hash uint64
	node int // index into Ring.names
}

// Ring is a consistent-hash ring over the member set. It is a pure
// function of the members map: every process that knows the same
// name→address set derives the same ring, so the coordinator and members
// never exchange ring state — only membership (see Membership).
type Ring struct {
	names  []string // sorted member names
	addrs  []string // addrs[i] serves names[i]
	vnodes []vnode  // sorted by hash
}

// BuildRing derives the ring for a member set (name → ingest address).
// An empty or nil map yields an empty ring, which routes nothing.
func BuildRing(members map[string]string) *Ring {
	r := &Ring{}
	for name := range members {
		r.names = append(r.names, name)
	}
	sort.Strings(r.names)
	r.addrs = make([]string, len(r.names))
	r.vnodes = make([]vnode, 0, len(r.names)*vnodesPerNode)
	for i, name := range r.names {
		r.addrs[i] = members[name]
		for v := 0; v < vnodesPerNode; v++ {
			r.vnodes = append(r.vnodes, vnode{hash: ringHash(name, v), node: i})
		}
	}
	sort.Slice(r.vnodes, func(a, b int) bool {
		if r.vnodes[a].hash != r.vnodes[b].hash {
			return r.vnodes[a].hash < r.vnodes[b].hash
		}
		// Ties (vanishingly rare with 64-bit hashes) break by name so the
		// ring stays order-independent.
		return r.names[r.vnodes[a].node] < r.names[r.vnodes[b].node]
	})
	return r
}

// ringHash positions vnode v of a member on the ring. Raw FNV-1a over
// near-identical inputs ("node-0#1", "node-0#2", …) leaves the high bits
// correlated, which would cluster a member's vnodes; the finalizer
// avalanches every input bit across the whole word.
func ringHash(name string, v int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{'#', byte(v), byte(v >> 8)})
	return seeded.Finalize(h.Sum64())
}

// keyHash positions a session id on the ring.
func keyHash(sessionID string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(sessionID))
	return seeded.Finalize(h.Sum64())
}

// Len reports the number of members.
func (r *Ring) Len() int { return len(r.names) }

// Nodes returns the member names in sorted order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.names...) }

// Route maps a session id to its owning member. ok is false only on an
// empty ring.
func (r *Ring) Route(sessionID string) (name, addr string, ok bool) {
	if len(r.vnodes) == 0 {
		return "", "", false
	}
	h := keyHash(sessionID)
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	if i == len(r.vnodes) {
		i = 0 // wrap: the ring is circular
	}
	n := r.vnodes[i].node
	return r.names[n], r.addrs[n], true
}
