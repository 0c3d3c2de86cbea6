package gis

import (
	"container/heap"

	"stir/internal/geo"
)

// RTree is an in-memory R-tree with quadratic node splits (Guttman 1984).
// It is not safe for concurrent mutation; concurrent reads are fine once
// loading has finished, which matches STIR's load-once/query-many gazetteer
// usage.
type RTree struct {
	root       *rnode
	size       int
	minEntries int
	maxEntries int
}

const (
	defaultMaxEntries = 16
	defaultMinEntries = 4
)

type rnode struct {
	parent   *rnode
	bounds   geo.Rect
	leaf     bool
	entries  []Item   // populated when leaf
	children []*rnode // populated when !leaf
}

// NewRTree returns an empty R-tree with default fan-out.
func NewRTree() *RTree {
	return NewRTreeWithFanout(defaultMinEntries, defaultMaxEntries)
}

// NewRTreeWithFanout returns an empty R-tree with the given min/max node
// occupancy. Out-of-range values are clamped so that 2 <= min <= max/2.
func NewRTreeWithFanout(minE, maxE int) *RTree {
	if maxE < 4 {
		maxE = 4
	}
	if minE < 2 {
		minE = 2
	}
	if minE > maxE/2 {
		minE = maxE / 2
	}
	return &RTree{
		root:       &rnode{leaf: true},
		minEntries: minE,
		maxEntries: maxE,
	}
}

// Len implements Index.
func (t *RTree) Len() int { return t.size }

// Insert implements Index.
func (t *RTree) Insert(item Item) {
	leaf := t.chooseLeaf(t.root, item.Bounds)
	leaf.entries = append(leaf.entries, item)
	if t.size == 0 {
		leaf.bounds = item.Bounds
	}
	t.size++
	for n := leaf; n != nil; n = n.parent {
		n.bounds = n.bounds.Union(item.Bounds)
	}
	if len(leaf.entries) > t.maxEntries {
		t.splitAndPropagate(leaf)
	}
}

// chooseLeaf descends to the leaf whose bounds need the least enlargement.
func (t *RTree) chooseLeaf(n *rnode, r geo.Rect) *rnode {
	for !n.leaf {
		best := n.children[0]
		bestEnl := enlargement(best.bounds, r)
		for _, c := range n.children[1:] {
			enl := enlargement(c.bounds, r)
			if enl < bestEnl || (enl == bestEnl && c.bounds.Area() < best.bounds.Area()) {
				best, bestEnl = c, enl
			}
		}
		n = best
	}
	return n
}

func enlargement(have, add geo.Rect) float64 {
	return have.Union(add).Area() - have.Area()
}

func nodeBounds(n *rnode) geo.Rect {
	var b geo.Rect
	first := true
	if n.leaf {
		for _, e := range n.entries {
			if first {
				b, first = e.Bounds, false
			} else {
				b = b.Union(e.Bounds)
			}
		}
	} else {
		for _, c := range n.children {
			if first {
				b, first = c.bounds, false
			} else {
				b = b.Union(c.bounds)
			}
		}
	}
	return b
}

// splitAndPropagate splits an overfull node, propagating splits rootward.
func (t *RTree) splitAndPropagate(n *rnode) {
	for {
		a, b := t.split(n)
		parent := n.parent
		if parent == nil {
			t.root = &rnode{
				children: []*rnode{a, b},
				bounds:   a.bounds.Union(b.bounds),
			}
			a.parent, b.parent = t.root, t.root
			return
		}
		for i, c := range parent.children {
			if c == n {
				parent.children[i] = a
				break
			}
		}
		parent.children = append(parent.children, b)
		a.parent, b.parent = parent, parent
		for m := parent; m != nil; m = m.parent {
			m.bounds = nodeBounds(m)
		}
		if len(parent.children) <= t.maxEntries {
			return
		}
		n = parent
	}
}

// split performs Guttman's quadratic split on n, returning two new nodes.
func (t *RTree) split(n *rnode) (a, b *rnode) {
	if n.leaf {
		rects := make([]geo.Rect, len(n.entries))
		for i, e := range n.entries {
			rects[i] = e.Bounds
		}
		g1, g2 := quadraticPartition(rects, t.minEntries)
		a = &rnode{leaf: true}
		b = &rnode{leaf: true}
		for _, i := range g1 {
			a.entries = append(a.entries, n.entries[i])
		}
		for _, i := range g2 {
			b.entries = append(b.entries, n.entries[i])
		}
	} else {
		rects := make([]geo.Rect, len(n.children))
		for i, c := range n.children {
			rects[i] = c.bounds
		}
		g1, g2 := quadraticPartition(rects, t.minEntries)
		a = &rnode{}
		b = &rnode{}
		for _, i := range g1 {
			child := n.children[i]
			child.parent = a
			a.children = append(a.children, child)
		}
		for _, i := range g2 {
			child := n.children[i]
			child.parent = b
			b.children = append(b.children, child)
		}
	}
	a.bounds = nodeBounds(a)
	b.bounds = nodeBounds(b)
	return a, b
}

// quadraticPartition partitions rect indices into two groups using Guttman's
// quadratic seeds + least-enlargement assignment, respecting minimum size.
func quadraticPartition(rects []geo.Rect, minSize int) (g1, g2 []int) {
	seed1, seed2 := 0, 1
	worst := -1.0
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			waste := rects[i].Union(rects[j]).Area() - rects[i].Area() - rects[j].Area()
			if waste > worst {
				worst, seed1, seed2 = waste, i, j
			}
		}
	}
	g1 = []int{seed1}
	g2 = []int{seed2}
	b1, b2 := rects[seed1], rects[seed2]
	remaining := make([]int, 0, len(rects)-2)
	for i := range rects {
		if i != seed1 && i != seed2 {
			remaining = append(remaining, i)
		}
	}
	for len(remaining) > 0 {
		if len(g1)+len(remaining) == minSize {
			g1 = append(g1, remaining...)
			break
		}
		if len(g2)+len(remaining) == minSize {
			g2 = append(g2, remaining...)
			break
		}
		bestIdx, bestDiff, bestTo1 := -1, -1.0, true
		for pos, i := range remaining {
			d1 := enlargement(b1, rects[i])
			d2 := enlargement(b2, rects[i])
			diff := d1 - d2
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestDiff = diff
				bestIdx = pos
				bestTo1 = d1 < d2 || (d1 == d2 && b1.Area() <= b2.Area())
			}
		}
		i := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		if bestTo1 {
			g1 = append(g1, i)
			b1 = b1.Union(rects[i])
		} else {
			g2 = append(g2, i)
			b2 = b2.Union(rects[i])
		}
	}
	return g1, g2
}

// SearchPoint implements Index.
func (t *RTree) SearchPoint(p geo.Point) []Item {
	return t.AppendPoint(nil, p)
}

// AppendPoint appends the items whose bounds contain p to dst, depth
// first, and returns the extended slice. It allocates only when dst runs
// out of room, so a caller with a stack buffer big enough for the overlap
// at one point searches without allocating.
func (t *RTree) AppendPoint(dst []Item, p geo.Point) []Item {
	if t.size == 0 {
		return dst
	}
	return t.root.appendPoint(dst, p)
}

func (n *rnode) appendPoint(dst []Item, p geo.Point) []Item {
	if !n.bounds.Contains(p) {
		return dst
	}
	if n.leaf {
		for _, e := range n.entries {
			if e.Bounds.Contains(p) {
				dst = append(dst, e)
			}
		}
		return dst
	}
	for _, c := range n.children {
		dst = c.appendPoint(dst, p)
	}
	return dst
}

// SearchRect implements Index.
func (t *RTree) SearchRect(r geo.Rect) []Item {
	if t.size == 0 {
		return nil
	}
	var out []Item
	var walk func(n *rnode)
	walk = func(n *rnode) {
		if !n.bounds.Intersects(r) {
			return
		}
		if n.leaf {
			for _, e := range n.entries {
				if e.Bounds.Intersects(r) {
					out = append(out, e)
				}
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// nnEntry is a best-first search frontier element: either a node or an item.
type nnEntry struct {
	dist float64
	node *rnode
	item *Item
}

type nnHeap []nnEntry

func (h nnHeap) Len() int           { return len(h) }
func (h nnHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h nnHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nnHeap) Push(x any)        { *h = append(*h, x.(nnEntry)) }
func (h *nnHeap) Pop() (out any) {
	old := *h
	n := len(old)
	out = old[n-1]
	*h = old[:n-1]
	return
}

// Nearest implements Index using best-first traversal.
func (t *RTree) Nearest(p geo.Point, k int) []Item {
	if k <= 0 || t.size == 0 {
		return nil
	}
	h := &nnHeap{{dist: t.root.bounds.DistanceSqDeg(p), node: t.root}}
	var out []Item
	for h.Len() > 0 && len(out) < k {
		e := heap.Pop(h).(nnEntry)
		switch {
		case e.item != nil:
			out = append(out, *e.item)
		case e.node.leaf:
			for i := range e.node.entries {
				it := &e.node.entries[i]
				heap.Push(h, nnEntry{dist: it.Bounds.DistanceSqDeg(p), item: it})
			}
		default:
			for _, c := range e.node.children {
				heap.Push(h, nnEntry{dist: c.bounds.DistanceSqDeg(p), node: c})
			}
		}
	}
	return out
}

// Depth returns the height of the tree (1 for a lone leaf root); exposed for
// tests and diagnostics.
func (t *RTree) Depth() int {
	d := 1
	n := t.root
	for !n.leaf {
		d++
		n = n.children[0]
	}
	return d
}

// checkInvariants validates structural invariants, returning a description of
// the first violation found ("" when healthy). Used by tests.
func (t *RTree) checkInvariants() string {
	var walk func(n *rnode, depth int) (int, string)
	walk = func(n *rnode, depth int) (int, string) {
		if n.leaf {
			for _, e := range n.entries {
				if !n.bounds.ContainsRect(e.Bounds) {
					return depth, "leaf bounds do not cover entry"
				}
			}
			return depth, ""
		}
		if len(n.children) == 0 {
			return depth, "internal node with no children"
		}
		leafDepth := -1
		for _, c := range n.children {
			if c.parent != n {
				return depth, "child parent pointer mismatch"
			}
			if !n.bounds.ContainsRect(c.bounds) {
				return depth, "node bounds do not cover child"
			}
			d, msg := walk(c, depth+1)
			if msg != "" {
				return d, msg
			}
			if leafDepth == -1 {
				leafDepth = d
			} else if d != leafDepth {
				return d, "leaves at different depths"
			}
		}
		return leafDepth, ""
	}
	_, msg := walk(t.root, 0)
	return msg
}
