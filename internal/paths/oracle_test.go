package paths

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"wavesched/internal/netgraph"
)

// oracleKShortest is Yen's algorithm with its ban sets as maps, probed on
// every edge relaxation: the form KShortestAvoiding had before its ban sets
// became stamped slices. It shares the heap (and so the sift order that
// breaks ties) with the Solver, and is kept as the oracle the stamped
// search must match path for path.
func oracleKShortest(g *netgraph.Graph, src, dst netgraph.NodeID, k int, cost CostFunc,
	avoid map[netgraph.EdgeID]bool) []Path {
	if k <= 0 || src == dst {
		return nil
	}
	first, ok := oracleShortest(g, src, dst, cost, avoid, nil)
	if !ok {
		return nil
	}
	result := []Path{first}
	seen := map[string]bool{first.Key(): true}
	var candidates []Path
	for len(result) < k {
		prev := result[len(result)-1]
		for i := 0; i < len(prev.Nodes)-1; i++ {
			spur := prev.Nodes[i]
			rootEdges := prev.Edges[:i]
			bannedEdges := map[netgraph.EdgeID]bool{}
			for eid := range avoid {
				bannedEdges[eid] = true
			}
			bannedNodes := map[netgraph.NodeID]bool{}
			for _, rp := range result {
				if len(rp.Edges) > i && sameEdges(rp.Edges[:i], rootEdges) {
					bannedEdges[rp.Edges[i]] = true
				}
			}
			for _, v := range prev.Nodes[:i] {
				bannedNodes[v] = true
			}
			spurPath, ok := oracleShortest(g, spur, dst, cost, bannedEdges, bannedNodes)
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

// oracleShortest is Dijkstra over map ban sets, the oracle's spur search.
func oracleShortest(g *netgraph.Graph, src, dst netgraph.NodeID, cost CostFunc,
	bannedEdges map[netgraph.EdgeID]bool, bannedNodes map[netgraph.NodeID]bool) (Path, bool) {
	n := g.NumNodes()
	dist := make([]float64, n)
	prevEdge := make([]netgraph.EdgeID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevEdge[i] = -1
	}
	if bannedNodes[src] || bannedNodes[dst] {
		return Path{}, false
	}
	dist[src] = 0
	q := pq{{src, 0}}
	for len(q) > 0 {
		v := q.pop().node
		if done[v] {
			continue
		}
		done[v] = true
		if v == dst {
			break
		}
		for _, eid := range g.Out(v) {
			if bannedEdges[eid] {
				continue
			}
			e := g.Edge(eid)
			if bannedNodes[e.To] {
				continue
			}
			if nd := dist[v] + cost(e); nd < dist[e.To] {
				dist[e.To] = nd
				prevEdge[e.To] = eid
				q.push(pqItem{e.To, nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return Path{}, false
	}
	var edges []netgraph.EdgeID
	for v := dst; v != src; v = g.Edge(prevEdge[v]).From {
		edges = append(edges, prevEdge[v])
	}
	for i, j := 0, len(edges)-1; i < j; i, j = i+1, j-1 {
		edges[i], edges[j] = edges[j], edges[i]
	}
	return makePath(g, src, edges, dist[dst]), true
}

// randomAvoid marks each edge of g with probability frac.
func randomAvoid(g *netgraph.Graph, rng *rand.Rand, frac float64) map[netgraph.EdgeID]bool {
	avoid := map[netgraph.EdgeID]bool{}
	for e := 0; e < g.NumEdges(); e++ {
		if rng.Float64() < frac {
			avoid[netgraph.EdgeID(e)] = true
		}
	}
	return avoid
}

// sameAsOracle compares a path set with the oracle's, edge for edge and
// cost for cost, and names the first difference.
func sameAsOracle(got, want []Path) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d paths, oracle %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i].Key() || got[i].Cost != want[i].Cost {
			return fmt.Errorf("path %d = %s (cost %v), oracle %s (cost %v)",
				i, got[i].Key(), got[i].Cost, want[i].Key(), want[i].Cost)
		}
	}
	return nil
}

// TestKShortestMatchesMapOracle holds Yen over stamped ban sets to the
// map-based oracle on Waxman graphs of 20–100 nodes, for K ∈ {1, 2, 4, 8}
// and random avoid sets (none, sparse, dense), through one reused Solver
// so that stale stamps of earlier searches are exercised too.
func TestKShortestMatchesMapOracle(t *testing.T) {
	s := &Solver{}
	for _, n := range []int{20, 35, 60, 100} {
		g, err := netgraph.Waxman(netgraph.WaxmanConfig{Nodes: n, LinkPairs: 2 * n, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		for trial := 0; trial < 12; trial++ {
			src := netgraph.NodeID(rng.Intn(n))
			dst := netgraph.NodeID(rng.Intn(n))
			avoid := randomAvoid(g, rng, []float64{0, 0.05, 0.2}[trial%3])
			for _, k := range []int{1, 2, 4, 8} {
				want := oracleKShortest(g, src, dst, k, UnitCost, avoid)
				if err := sameAsOracle(s.KShortestAvoiding(g, src, dst, k, UnitCost, avoid), want); err != nil {
					t.Fatalf("n=%d %d->%d K=%d |avoid|=%d: %v", n, src, dst, k, len(avoid), err)
				}
				if err := sameAsOracle(KShortestAvoiding(g, src, dst, k, UnitCost, avoid), want); err != nil {
					t.Fatalf("pooled, n=%d %d->%d K=%d |avoid|=%d: %v", n, src, dst, k, len(avoid), err)
				}
			}
		}
	}
}

// TestStampWrapClearsBans forces the stamp past its last value: the
// arrays are cleared, so a mark from before the wrap bans nothing after it.
func TestStampWrapClearsBans(t *testing.T) {
	g := netgraph.Line(3, 1, 1)
	s := &Solver{}
	avoid := map[netgraph.EdgeID]bool{}
	for e := 0; e < g.NumEdges(); e++ {
		avoid[netgraph.EdgeID(e)] = true
	}
	if _, ok := s.PricedShortest(g, 0, 2, UnitCost, nil, avoid); ok {
		t.Fatal("a path over banned edges")
	}
	s.stamp = math.MaxUint32 // the next search wraps
	s.edgeBan[0] = 1         // a mark the wrapped stamp would read as live
	if _, ok := s.PricedShortest(g, 0, 2, UnitCost, nil, nil); !ok {
		t.Fatal("no path after the stamp wrapped: stale marks survived")
	}
}

// FuzzKShortestAvoiding: for a fuzzed Waxman graph (seed and size), K,
// endpoints and avoid mask, Yen over stamped ban sets returns the map
// oracle's paths, edge for edge and cost for cost.
func FuzzKShortestAvoiding(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(4), uint8(0), uint8(19), uint64(0))
	f.Add(int64(7), uint8(60), uint8(8), uint8(3), uint8(41), uint64(0x0123456789abcdef))
	f.Add(int64(3), uint8(99), uint8(2), uint8(50), uint8(50), uint64(1<<63|5))
	f.Fuzz(func(t *testing.T, seed int64, size, k, src, dst uint8, mask uint64) {
		n := 2 + int(size)%99 // 2..100 nodes
		g, err := netgraph.Waxman(netgraph.WaxmanConfig{Nodes: n, LinkPairs: 2 * n, Seed: seed})
		if err != nil {
			t.Skip(err)
		}
		// Edge e is avoided when bit e mod 64 of the mask is set and, past
		// the first 64 edges, also bit ⌊e/64⌋ mod 64, so larger graphs keep
		// most of their edges.
		avoid := map[netgraph.EdgeID]bool{}
		for e := 0; e < g.NumEdges(); e++ {
			if mask>>(uint(e)%64)&1 == 1 && (e < 64 || mask>>(uint(e/64)%64)&1 == 1) {
				avoid[netgraph.EdgeID(e)] = true
			}
		}
		kk := 1 + int(k)%8
		a, b := netgraph.NodeID(int(src)%n), netgraph.NodeID(int(dst)%n)
		if err := sameAsOracle(KShortestAvoiding(g, a, b, kk, UnitCost, avoid),
			oracleKShortest(g, a, b, kk, UnitCost, avoid)); err != nil {
			t.Fatalf("n=%d seed=%d %d->%d K=%d |avoid|=%d: %v", n, seed, a, b, kk, len(avoid), err)
		}
	})
}
