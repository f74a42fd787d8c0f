package paths

import (
	"testing"

	"wavesched/internal/netgraph"
)

func allocsGraph(t testing.TB, nodes int) *netgraph.Graph {
	t.Helper()
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{
		Nodes: nodes, LinkPairs: 2 * nodes, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSolverReuseAllocations is the allocs guard for the pooled path
// solver, mirroring lp's TestRepeatSolveAllocations: running Yen on a
// retained Solver must allocate strictly less than building a fresh Solver
// per query, because the Dijkstra scratch (dist, predecessor, visited,
// heap) and the spur ban-sets are reused across calls.
func TestSolverReuseAllocations(t *testing.T) {
	g := allocsGraph(t, 200)
	dst := netgraph.NodeID(g.NumNodes() - 1)
	fresh := testing.AllocsPerRun(3, func() {
		s := &Solver{}
		if ps := s.KShortestAvoiding(g, 0, dst, 4, UnitCost, nil); len(ps) == 0 {
			t.Fatal("no paths")
		}
	})
	s := NewSolver(g.NumNodes())
	if ps := s.KShortestAvoiding(g, 0, dst, 4, UnitCost, nil); len(ps) == 0 {
		t.Fatal("no paths")
	}
	reused := testing.AllocsPerRun(5, func() {
		if ps := s.KShortestAvoiding(g, 0, dst, 4, UnitCost, nil); len(ps) == 0 {
			t.Fatal("no paths")
		}
	})
	if reused >= fresh {
		t.Fatalf("reused solver allocates %v objects, fresh solver %v — scratch reuse not engaged", reused, fresh)
	}
}

// TestShortestScratchAllocations pins the single-Dijkstra hot path: with a
// warmed Solver, Shortest allocates only the returned Path (edge + node
// slices), not the working arrays.
func TestShortestScratchAllocations(t *testing.T) {
	g := allocsGraph(t, 400)
	dst := netgraph.NodeID(g.NumNodes() - 1)
	s := NewSolver(g.NumNodes())
	if _, ok := s.Shortest(g, 0, dst, UnitCost, nil, nil); !ok {
		t.Fatal("no path")
	}
	got := testing.AllocsPerRun(10, func() {
		if _, ok := s.Shortest(g, 0, dst, UnitCost, nil, nil); !ok {
			t.Fatal("no path")
		}
	})
	// Path reconstruction allocates the edges slice (with append growth),
	// the nodes slice, and the boxed heap items; the dist/prev/done arrays
	// must not show up. A generous cap still catches a per-call rebuild of
	// the 400-entry scratch arrays.
	if got > 40 {
		t.Fatalf("warm Shortest allocates %v objects per call — scratch arrays are being rebuilt", got)
	}
}

// TestPricedShortestFollowsPrices checks the pricing-oracle metric: with a
// heavy price on the direct edge, the oracle routes around it.
func TestPricedShortestFollowsPrices(t *testing.T) {
	// Triangle: 0→2 direct, and 0→1→2.
	g := netgraph.New("triangle")
	for i := 0; i < 3; i++ {
		g.AddNode("", float64(i), 0)
	}
	d, err := g.AddEdge(0, 2, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	a, err := g.AddEdge(0, 1, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(1, 2, 1, 10); err != nil {
		t.Fatal(err)
	}

	s := NewSolver(g.NumNodes())
	p, ok := s.PricedShortest(g, 0, 2, UnitCost, nil, nil)
	if !ok || p.Hops() != 1 {
		t.Fatalf("nil prices: want the 1-hop direct path, got %+v ok=%v", p, ok)
	}

	prices := make([]float64, g.NumEdges())
	prices[d] = 5 // direct edge now costs 1+5 vs 2 for the detour
	p, ok = s.PricedShortest(g, 0, 2, UnitCost, prices, nil)
	if !ok || p.Hops() != 2 {
		t.Fatalf("priced direct edge: want the 2-hop detour, got %+v ok=%v", p, ok)
	}

	// Pure-price metric (nil cost) with zero prices still finds a path.
	p, ok = s.PricedShortest(g, 0, 2, nil, make([]float64, g.NumEdges()), nil)
	if !ok {
		t.Fatal("zero-price metric: no path")
	}

	// Avoid set still applies.
	if _, ok := s.PricedShortest(g, 0, 2, UnitCost, nil,
		map[netgraph.EdgeID]bool{d: true, a: true}); ok {
		t.Fatal("avoiding both outgoing edges of 0 must fail")
	}
}
