package stream

import (
	"stir/internal/core"
)

// Per-user incremental grouping state. The batch method (core.BuildUserGrouping)
// merges a user's tweet places into counted strings, sorts them by
// (count desc, key asc) and ranks the matched string — O(k log k) per full
// rebuild. Here the merged multiset lives in an order-statistic treap ordered
// the same way, so one tweet is a delete+insert (the place's count moves up
// by one) plus a rank query for the matched place: O(log k) per tweet, where
// k is the user's distinct-district count.

// osNode is one merged string: a tweet place with its multiplicity, sitting
// in the treap at position (count desc, key asc). size augments the subtree
// for rank queries.
type osNode struct {
	place core.Place
	key   string // cached place.Key(), the sort tiebreaker
	count int
	prio  uint64
	left  *osNode
	right *osNode
	size  int
}

func nsize(n *osNode) int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *osNode) recalc() { n.size = 1 + nsize(n.left) + nsize(n.right) }

// beforeCK is the batch sort order: descending count, ties by ascending key.
func beforeCK(ac int, ak string, bc int, bk string) bool {
	if ac != bc {
		return ac > bc
	}
	return ak < bk
}

func rotRight(n *osNode) *osNode {
	l := n.left
	n.left = l.right
	l.right = n
	n.recalc()
	l.recalc()
	return l
}

func rotLeft(n *osNode) *osNode {
	r := n.right
	n.right = r.left
	r.left = n
	n.recalc()
	r.recalc()
	return r
}

func osInsert(root, n *osNode) *osNode {
	if root == nil {
		n.size = 1
		return n
	}
	if beforeCK(n.count, n.key, root.count, root.key) {
		root.left = osInsert(root.left, n)
		if root.left.prio > root.prio {
			root = rotRight(root)
		}
	} else {
		root.right = osInsert(root.right, n)
		if root.right.prio > root.prio {
			root = rotLeft(root)
		}
	}
	root.recalc()
	return root
}

func osMerge(a, b *osNode) *osNode {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.prio > b.prio {
		a.right = osMerge(a.right, b)
		a.recalc()
		return a
	}
	b.left = osMerge(a, b.left)
	b.recalc()
	return b
}

func osRemove(root *osNode, count int, key string) *osNode {
	if root == nil {
		return nil
	}
	if count == root.count && key == root.key {
		return osMerge(root.left, root.right)
	}
	if beforeCK(count, key, root.count, root.key) {
		root.left = osRemove(root.left, count, key)
	} else {
		root.right = osRemove(root.right, count, key)
	}
	root.recalc()
	return root
}

// osRank returns the 1-based position of (count, key) in the treap's order,
// or 0 when absent.
func osRank(root *osNode, count int, key string) int {
	r := 1
	for root != nil {
		switch {
		case count == root.count && key == root.key:
			return r + nsize(root.left)
		case beforeCK(count, key, root.count, root.key):
			root = root.left
		default:
			r += nsize(root.left) + 1
			root = root.right
		}
	}
	return 0
}

func osInorder(root *osNode, fn func(*osNode)) {
	if root == nil {
		return
	}
	osInorder(root.left, fn)
	fn(root)
	osInorder(root.right, fn)
}

// splitmix64 is the treap's priority and the engine's shard-hash mixer —
// seeded, so runs are reproducible.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// prioRNG deals deterministic treap priorities; one per shard, never shared.
type prioRNG struct{ s uint64 }

func (r *prioRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	x := r.s
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// userState is one user's live grouping: the merged-string treap, the
// matched string's current rank, and the derived Top-k group.
type userState struct {
	id      int64
	profile core.Place
	nodes   map[core.Place]*osNode
	root    *osNode
	match   *osNode // nodes[profile], nil until a tweet matches the profile
	total   int     // successfully geocoded tweets, the batch TotalTweets
	rank    int     // 1-based matched rank, 0 while no tweet matched the profile
	group   core.Group
	lastID  int64 // highest applied tweet ID, for monotonic dedup on replay
}

func newUserState(id int64, profile core.Place) *userState {
	return &userState{
		id:      id,
		profile: profile,
		nodes:   make(map[core.Place]*osNode, 4),
		group:   core.None,
	}
}

// observe applies one geocoded tweet place: bump the place's multiplicity
// (delete + reinsert keeps the treap ordered) and re-rank the matched
// string, whose position may shift even when p is a different place.
func (u *userState) observe(p core.Place, prio func() uint64) {
	u.total++
	n := u.nodes[p]
	if n == nil {
		n = &osNode{place: p, key: p.Key(), count: 1, prio: prio()}
		u.nodes[p] = n
		u.root = osInsert(u.root, n)
		if p == u.profile {
			u.match = n
		}
	} else {
		u.root = osRemove(u.root, n.count, n.key)
		n.count++
		n.left, n.right = nil, nil
		u.root = osInsert(u.root, n)
	}
	if u.match != nil {
		u.rank = osRank(u.root, u.match.count, u.match.key)
	}
	u.group = core.GroupOfRank(u.rank)
}

// matchedTweets is the matched string's multiplicity (0 when none).
func (u *userState) matchedTweets() int {
	if u.match != nil {
		return u.match.count
	}
	return 0
}

// term is the user's contribution to the §IV analysis, the one
// core.UserGrouping.Term gives for the same user.
func (u *userState) term() core.UserTerm {
	return core.UserTerm{Group: u.group, Tweets: u.total, Districts: len(u.nodes), Matched: u.matchedTweets()}
}

// matchShare is the user's reliability weight, core.UserTerm.Share.
func (u *userState) matchShare() float64 { return u.term().Share() }

// grouping materialises the batch-equivalent core.UserGrouping: the in-order
// treap walk yields exactly the merged-and-ordered Table II list.
func (u *userState) grouping() core.UserGrouping {
	merged := make([]core.MergedString, 0, len(u.nodes))
	osInorder(u.root, func(n *osNode) {
		merged = append(merged, core.MergedString{
			LocString: core.LocString{UserID: u.id, Profile: u.profile, Tweet: n.place},
			Count:     n.count,
		})
	})
	return core.UserGrouping{
		UserID:            u.id,
		Profile:           u.profile,
		Merged:            merged,
		MatchedRank:       u.rank,
		Group:             u.group,
		TotalTweets:       u.total,
		DistinctDistricts: len(u.nodes),
		MatchedTweets:     u.matchedTweets(),
	}
}
