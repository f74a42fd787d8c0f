// Package paths computes the per-job allowed path sets the scheduler
// reserves bandwidth on: Dijkstra shortest paths and Yen's k-shortest
// loopless paths over a netgraph.Graph.
//
// The paper (following Rajah, Ranka, Xia) allows each job an explicit
// collection of 4–8 paths; KShortestAvoiding builds exactly those
// collections. Solver.PricedShortest is the column-generation pricing
// oracle: Dijkstra under per-edge additive prices (the LP capacity duals),
// which finds the minimum-reduced-cost path candidate for a job.
//
// All package-level functions are safe for concurrent use; they draw a
// pooled Solver whose Dijkstra scratch (dist, predecessor, visited, heap)
// and ban sets are reused across calls, mirroring lp's per-model
// scratch-buffer cache. Long-lived callers with many queries can hold
// their own Solver to skip the pool round-trip.
package paths

import (
	"math"
	"sort"
	"strconv"
	"sync"

	"wavesched/internal/netgraph"
)

// Path is a directed path described by its edge sequence plus the derived
// node sequence (Nodes[0] is the source; Nodes[len-1] the destination).
type Path struct {
	Edges []netgraph.EdgeID
	Nodes []netgraph.NodeID
	Cost  float64
}

// Key returns a canonical string for de-duplication: the edge IDs as
// fmt.Sprint renders the slice ("[1 2 3]"), which the stage-2 tie-break
// hashes, built without fmt's reflection.
func (p Path) Key() string {
	b := make([]byte, 0, 2+4*len(p.Edges))
	b = append(b, '[')
	for i, e := range p.Edges {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(e), 10)
	}
	return string(append(b, ']'))
}

// CostFunc maps an edge to its routing cost. Costs must be positive.
type CostFunc func(netgraph.Edge) float64

// UnitCost weighs every edge 1, so path cost is hop count.
func UnitCost(netgraph.Edge) float64 { return 1 }

// pqItem is a priority-queue element for Dijkstra.
type pqItem struct {
	node netgraph.NodeID
	dist float64
}

// pq is a hand-rolled binary min-heap over pqItems. container/heap would
// box every pushed item into an interface, which dominated the per-call
// allocation count; the sift order matches container/heap exactly, so
// tie-breaking (and therefore path choice) is unchanged.
type pq []pqItem

func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].dist <= h[i].dist {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (q *pq) pop() pqItem {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	*q = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h[l].dist < h[small].dist {
			small = l
		}
		if r < n && h[r].dist < h[small].dist {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

// Solver holds the Dijkstra and Yen working state — distance, predecessor,
// visited arrays, the binary heap, and the ban sets — so repeated queries
// reuse one set of allocations instead of rebuilding them per call (the
// scale-tier pricing loop runs thousands of Dijkstras per round). The zero
// value is ready to use. A Solver is not safe for concurrent use; the
// package-level functions draw distinct Solvers from an internal pool.
type Solver struct {
	dist     []float64
	prevEdge []netgraph.EdgeID
	done     []bool
	q        pq

	// The ban sets of the current search, as stamps: edge e (node v) is
	// banned while edgeBan[e] (nodeBan[v]) equals stamp. Every search — each
	// of Yen's spurs — starts an empty set by bumping stamp, instead of
	// clearing a map that every edge relaxation would probe.
	edgeBan []uint32
	nodeBan []uint32
	stamp   uint32
}

// NewSolver returns a Solver with scratch pre-sized for an n-node graph.
func NewSolver(n int) *Solver {
	s := &Solver{}
	s.grow(n, 0)
	return s
}

// grow sizes the scratch for a graph of n nodes and m edges.
func (s *Solver) grow(n, m int) {
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
		s.prevEdge = make([]netgraph.EdgeID, n)
		s.done = make([]bool, n)
	}
	s.dist = s.dist[:n]
	s.prevEdge = s.prevEdge[:n]
	s.done = s.done[:n]
	if cap(s.nodeBan) < n {
		s.nodeBan = make([]uint32, n)
	}
	s.nodeBan = s.nodeBan[:n]
	if cap(s.edgeBan) < m {
		s.edgeBan = make([]uint32, m)
	}
	s.edgeBan = s.edgeBan[:m]
}

// start sizes the scratch for g and starts an empty ban set.
func (s *Solver) start(g *netgraph.Graph) {
	s.grow(g.NumNodes(), g.NumEdges())
	s.newBans()
}

// newBans starts an empty ban set: every mark made before is stale.
func (s *Solver) newBans() {
	s.stamp++
	if s.stamp == 0 { // wrapped: an old mark could equal a new stamp
		clear(s.edgeBan[:cap(s.edgeBan)])
		clear(s.nodeBan[:cap(s.nodeBan)])
		s.stamp = 1
	}
}

// banEdge adds e to the current ban set; an ID outside the graph bans
// nothing, as it would in a map.
func (s *Solver) banEdge(e netgraph.EdgeID) {
	if uint(e) < uint(len(s.edgeBan)) {
		s.edgeBan[e] = s.stamp
	}
}

// banEdges adds the edges that m maps to true to the current ban set.
func (s *Solver) banEdges(m map[netgraph.EdgeID]bool) {
	for e, ban := range m {
		if ban {
			s.banEdge(e)
		}
	}
}

var solverPool = sync.Pool{New: func() interface{} { return &Solver{} }}

// Shortest returns the least-cost path from src to dst, or ok=false when
// dst is unreachable. bannedEdges and bannedNodes (either may be nil)
// exclude parts of the graph, as Yen's algorithm requires.
func Shortest(g *netgraph.Graph, src, dst netgraph.NodeID, cost CostFunc,
	bannedEdges map[netgraph.EdgeID]bool, bannedNodes map[netgraph.NodeID]bool) (Path, bool) {
	s := solverPool.Get().(*Solver)
	p, ok := s.Shortest(g, src, dst, cost, bannedEdges, bannedNodes)
	solverPool.Put(s)
	return p, ok
}

// Shortest is the Solver-scratch form of the package-level Shortest.
func (s *Solver) Shortest(g *netgraph.Graph, src, dst netgraph.NodeID, cost CostFunc,
	bannedEdges map[netgraph.EdgeID]bool, bannedNodes map[netgraph.NodeID]bool) (Path, bool) {
	s.start(g)
	s.banEdges(bannedEdges)
	for v, ban := range bannedNodes {
		if ban && uint(v) < uint(len(s.nodeBan)) {
			s.nodeBan[v] = s.stamp
		}
	}
	return s.shortest(g, src, dst, cost, nil)
}

// PricedShortest returns the minimum-weight src→dst path where each edge e
// weighs cost(e) + prices[e] (cost may be nil for a pure-price metric;
// prices is indexed by EdgeID and may be nil). Negative effective weights
// are clamped to a tiny positive value, so callers pass clamped dual
// prices. This is the column-generation pricing oracle: with prices set to
// the negated capacity-row duals of a slice, the returned path minimizes
// the dual load term of the reduced cost over all simple paths.
func (s *Solver) PricedShortest(g *netgraph.Graph, src, dst netgraph.NodeID, cost CostFunc,
	prices []float64, avoid map[netgraph.EdgeID]bool) (Path, bool) {
	s.start(g)
	s.banEdges(avoid)
	return s.shortest(g, src, dst, cost, prices)
}

// shortest is the shared Dijkstra core over the current ban set (start and
// the ban methods fill it): edge weight = cost(e) + prices[e], either part
// optional, clamped positive.
func (s *Solver) shortest(g *netgraph.Graph, src, dst netgraph.NodeID, cost CostFunc,
	prices []float64) (Path, bool) {
	dist, prevEdge, done := s.dist, s.prevEdge, s.done
	edgeBan, nodeBan, stamp := s.edgeBan, s.nodeBan, s.stamp
	for i := range dist {
		dist[i] = math.Inf(1)
		prevEdge[i] = -1
		done[i] = false
	}
	if nodeBan[src] == stamp || nodeBan[dst] == stamp {
		return Path{}, false
	}
	dist[src] = 0
	s.q = append(s.q[:0], pqItem{src, 0})
	q := &s.q
	for len(*q) > 0 {
		it := q.pop()
		v := it.node
		if done[v] {
			continue
		}
		done[v] = true
		if v == dst {
			break
		}
		for _, eid := range g.Out(v) {
			if edgeBan[eid] == stamp {
				continue
			}
			e := g.Edge(eid)
			if nodeBan[e.To] == stamp {
				continue
			}
			c := 0.0
			if cost != nil {
				c = cost(e)
			}
			if prices != nil && int(eid) < len(prices) {
				c += prices[eid]
			}
			if c <= 0 {
				c = 1e-12
			}
			nd := dist[v] + c
			if nd < dist[e.To] {
				dist[e.To] = nd
				prevEdge[e.To] = eid
				q.push(pqItem{e.To, nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return Path{}, false
	}
	// Reconstruct.
	var edges []netgraph.EdgeID
	for v := dst; v != src; {
		eid := prevEdge[v]
		edges = append(edges, eid)
		v = g.Edge(eid).From
	}
	// Reverse.
	for i, j := 0, len(edges)-1; i < j; i, j = i+1, j-1 {
		edges[i], edges[j] = edges[j], edges[i]
	}
	return makePath(g, src, edges, dist[dst]), true
}

func makePath(g *netgraph.Graph, src netgraph.NodeID, edges []netgraph.EdgeID, cost float64) Path {
	nodes := []netgraph.NodeID{src}
	for _, eid := range edges {
		nodes = append(nodes, g.Edge(eid).To)
	}
	return Path{Edges: edges, Nodes: nodes, Cost: cost}
}

// KShortestAvoiding returns up to k loopless paths from src to dst in
// non-decreasing cost order, using Yen's algorithm, over paths that use no
// edge in avoid (nil means no restriction: links that are down go there).
func KShortestAvoiding(g *netgraph.Graph, src, dst netgraph.NodeID, k int, cost CostFunc,
	avoid map[netgraph.EdgeID]bool) []Path {
	s := solverPool.Get().(*Solver)
	out := s.KShortestAvoiding(g, src, dst, k, cost, avoid)
	solverPool.Put(s)
	return out
}

// KShortestAvoiding is the Solver-scratch form of the package-level
// KShortestAvoiding: the spur-node Dijkstras and ban sets reuse the
// Solver's buffers instead of allocating per spur.
func (s *Solver) KShortestAvoiding(g *netgraph.Graph, src, dst netgraph.NodeID, k int, cost CostFunc,
	avoid map[netgraph.EdgeID]bool) []Path {
	if k <= 0 || src == dst {
		return nil
	}
	first, ok := s.PricedShortest(g, src, dst, cost, nil, avoid)
	if !ok {
		return nil
	}
	result := []Path{first}
	seen := map[string]bool{first.Key(): true}
	var candidates []Path

	for len(result) < k {
		prev := result[len(result)-1]
		// Each node on the previous path (except the destination) is a
		// potential spur node.
		for i := 0; i < len(prev.Nodes)-1; i++ {
			spur := prev.Nodes[i]
			rootEdges := prev.Edges[:i]

			s.newBans()
			s.banEdges(avoid)
			// Ban edges used by earlier results that share the same root.
			for _, rp := range result {
				if len(rp.Edges) > i && sameEdges(rp.Edges[:i], rootEdges) {
					s.banEdge(rp.Edges[i])
				}
			}
			// Ban the root's interior nodes to keep paths loopless.
			for _, v := range prev.Nodes[:i] {
				s.nodeBan[v] = s.stamp
			}

			spurPath, ok := s.shortest(g, spur, dst, cost, nil)
			if !ok {
				continue
			}
			totalEdges := append(append([]netgraph.EdgeID{}, rootEdges...), spurPath.Edges...)
			rootCost := 0.0
			for _, eid := range rootEdges {
				rootCost += cost(g.Edge(eid))
			}
			cand := makePath(g, src, totalEdges, rootCost+spurPath.Cost)
			if !seen[cand.Key()] {
				seen[cand.Key()] = true
				candidates = append(candidates, cand)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool { return candidates[a].Cost < candidates[b].Cost })
		result = append(result, candidates[0])
		candidates = candidates[1:]
	}
	return result
}

// EdgeDisjointAvoiding returns up to k pairwise edge-disjoint paths from
// src to dst that use no edge in avoid (nil means no restriction),
// greedily: repeatedly take the shortest path and ban its edges. The
// result is not guaranteed to be the maximum disjoint set (that would be a
// flow problem), but it gives the scheduler path collections that never
// contend with each other on any link — useful when wavelength continuity
// matters or for survivability-style provisioning.
func EdgeDisjointAvoiding(g *netgraph.Graph, src, dst netgraph.NodeID, k int, cost CostFunc,
	avoid map[netgraph.EdgeID]bool) []Path {
	s := solverPool.Get().(*Solver)
	out := s.EdgeDisjointAvoiding(g, src, dst, k, cost, avoid)
	solverPool.Put(s)
	return out
}

// EdgeDisjointAvoiding is the Solver-scratch form of the package-level
// EdgeDisjointAvoiding.
func (s *Solver) EdgeDisjointAvoiding(g *netgraph.Graph, src, dst netgraph.NodeID, k int, cost CostFunc,
	avoid map[netgraph.EdgeID]bool) []Path {
	if k <= 0 || src == dst {
		return nil
	}
	s.start(g)
	s.banEdges(avoid)
	var out []Path
	for len(out) < k {
		p, ok := s.shortest(g, src, dst, cost, nil)
		if !ok {
			break
		}
		out = append(out, p)
		for _, eid := range p.Edges {
			s.banEdge(eid)
		}
	}
	return out
}

// Disjoint reports whether no two paths in the set share a directed edge.
func Disjoint(ps []Path) bool {
	seen := make(map[netgraph.EdgeID]bool)
	for _, p := range ps {
		for _, eid := range p.Edges {
			if seen[eid] {
				return false
			}
			seen[eid] = true
		}
	}
	return true
}

func sameEdges(a, b []netgraph.EdgeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
