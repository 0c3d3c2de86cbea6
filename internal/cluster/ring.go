// Package cluster turns the single-process stream engine into a horizontally
// partitioned deployment: a router daemon consistent-hashes users across N
// stream workers (each running its own internal/stream engine with its own
// checkpoint store), scatter-gathers the /v1 query API with partial-result
// degradation, and migrates shards between workers on join/leave/crash via
// the engine's handoff and checkpoint seams. The defining property is
// robustness: a worker can be SIGKILLed mid-ingest and the cluster still
// converges to the exact batch answer — the router replays its journal from
// the dead worker's durable checkpoint cursor, and the engine's
// DedupByTweetID makes the overlap idempotent.
package cluster

import (
	"sort"

	"stir/internal/stream"
	"stir/internal/twitter"
)

// DefaultPartitions is the hash-space granularity: users map to one of this
// many partitions, and partitions map to workers. More partitions than
// workers keeps handoff increments small and the spread even.
const DefaultPartitions = 64

// PartitionOf routes a user to a partition. It is the stream engine's own
// partition hash, so the partition summaries a worker keeps bucket users
// exactly as the router routes them.
func PartitionOf(id twitter.UserID, partitions int) int {
	return stream.PartitionOf(id, partitions)
}

// Ring assigns partitions to workers by rendezvous (highest-random-weight)
// hashing: each (worker, partition) pair gets a deterministic score and the
// top scorers own the partition. Membership changes move only the partitions
// whose top scorer changed — the consistent-hashing property — with no
// virtual-node bookkeeping. A Ring is immutable; membership changes build a
// new one.
type Ring struct {
	partitions int
	names      []string // sorted, deduplicated
	hashes     []uint64 // per-name seed, parallel to names
	// order holds every partition's members in descending score order,
	// one row of len(names) per partition, so Owners allocates nothing.
	order []string
}

// NewRing builds a ring over the given worker names. Partitions defaults to
// DefaultPartitions when <= 0.
func NewRing(partitions int, names []string) *Ring {
	if partitions <= 0 {
		partitions = DefaultPartitions
	}
	uniq := make(map[string]bool, len(names))
	var sorted []string
	for _, n := range names {
		if n == "" || uniq[n] {
			continue
		}
		uniq[n] = true
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	r := &Ring{partitions: partitions, names: sorted, hashes: make([]uint64, len(sorted))}
	for i, n := range sorted {
		r.hashes[i] = splitmix64(fnv64(n))
	}
	m := len(sorted)
	r.order = make([]string, partitions*m)
	idx := make([]int, m)
	for p := 0; p < partitions; p++ {
		for i := range idx {
			idx[i] = i
		}
		// Ties go to the earlier name; names are sorted, so to the lower index.
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := r.score(idx[a], p), r.score(idx[b], p)
			if sa != sb {
				return sa > sb
			}
			return idx[a] < idx[b]
		})
		for k, i := range idx {
			r.order[p*m+k] = sorted[i]
		}
	}
	return r
}

// Partitions returns the ring's partition count.
func (r *Ring) Partitions() int { return r.partitions }

// Workers returns the member names in sorted order (a copy).
func (r *Ring) Workers() []string { return append([]string(nil), r.names...) }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.names) }

// With returns a new ring with name added.
func (r *Ring) With(name string) *Ring {
	return NewRing(r.partitions, append(r.Workers(), name))
}

// Without returns a new ring with name removed.
func (r *Ring) Without(name string) *Ring {
	var names []string
	for _, n := range r.names {
		if n != name {
			names = append(names, n)
		}
	}
	return NewRing(r.partitions, names)
}

// score is the rendezvous weight of worker i for a partition.
func (r *Ring) score(i, part int) uint64 {
	return splitmix64(r.hashes[i] ^ splitmix64(uint64(part)+0x51ed270b))
}

// Owners returns the top-n distinct workers for a partition in
// [0, Partitions()) in descending score order — the partition's replicaset,
// primary first. Fewer than n members returns them all. The slice is shared
// with the ring: callers must not modify it.
func (r *Ring) Owners(part, n int) []string {
	m := len(r.names)
	if m == 0 || n <= 0 {
		return nil
	}
	n = min(n, m)
	return r.order[part*m : part*m+n : part*m+n]
}

// Owner returns the partition's primary worker ("" on an empty ring).
func (r *Ring) Owner(part int) string {
	o := r.Owners(part, 1)
	if len(o) == 0 {
		return ""
	}
	return o[0]
}

// PartsOwnedBy lists the partitions whose replicaset (of size replicas)
// includes name.
func (r *Ring) PartsOwnedBy(name string, replicas int) []int {
	var parts []int
	for p := 0; p < r.partitions; p++ {
		for _, o := range r.Owners(p, replicas) {
			if o == name {
				parts = append(parts, p)
				break
			}
		}
	}
	return parts
}

// splitmix64 is the SplitMix64 finaliser, the ring's rendezvous mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 is FNV-1a over a worker name.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
