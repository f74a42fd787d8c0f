package paths

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wavesched/internal/netgraph"
)

func TestShortestOnLine(t *testing.T) {
	g := netgraph.Line(5, 1, 1)
	p, ok := Shortest(g, 0, 4, UnitCost, nil, nil)
	if !ok {
		t.Fatal("no path found")
	}
	if len(p.Edges) != 4 {
		t.Errorf("hops = %d, want 4", len(p.Edges))
	}
	if p.Cost != 4 {
		t.Errorf("cost = %g, want 4", p.Cost)
	}
	if p.Nodes[0] != 0 || p.Nodes[len(p.Nodes)-1] != 4 {
		t.Errorf("endpoints %v", p.Nodes)
	}
	if !loopless(p) {
		t.Error("line path has a loop")
	}
}

func TestShortestUnreachable(t *testing.T) {
	g := netgraph.New("iso")
	a := g.AddNode("a", 0, 0)
	b := g.AddNode("b", 1, 1)
	if _, ok := Shortest(g, a, b, UnitCost, nil, nil); ok {
		t.Error("found path in disconnected graph")
	}
}

func TestShortestBans(t *testing.T) {
	g := netgraph.Ring(4, 1, 1)
	// Ban the direct edge 0→1; the path must go the long way.
	var direct netgraph.EdgeID = -1
	for _, eid := range g.Out(0) {
		if g.Edge(eid).To == 1 {
			direct = eid
		}
	}
	if direct < 0 {
		t.Fatal("no direct edge found")
	}
	p, ok := Shortest(g, 0, 1, UnitCost, map[netgraph.EdgeID]bool{direct: true}, nil)
	if !ok {
		t.Fatal("no alternative path")
	}
	if len(p.Edges) != 3 {
		t.Errorf("hops = %d, want 3 (around the ring)", len(p.Edges))
	}
	// Banning an intermediate node cuts the detour too.
	_, ok = Shortest(g, 0, 1, UnitCost,
		map[netgraph.EdgeID]bool{direct: true},
		map[netgraph.NodeID]bool{2: true})
	if ok {
		t.Error("path found despite banned node")
	}
	// Banned source or destination.
	if _, ok := Shortest(g, 0, 1, UnitCost, nil, map[netgraph.NodeID]bool{0: true}); ok {
		t.Error("banned source still routed")
	}
}

func TestKShortestRing(t *testing.T) {
	g := netgraph.Ring(6, 1, 1)
	ps := KShortestAvoiding(g, 0, 3, 5, UnitCost, nil)
	// A 6-ring has exactly two loopless paths between opposite nodes.
	if len(ps) != 2 {
		t.Fatalf("got %d paths, want 2", len(ps))
	}
	if len(ps[0].Edges) != 3 || len(ps[1].Edges) != 3 {
		t.Errorf("hops = %d, %d, want 3, 3", len(ps[0].Edges), len(ps[1].Edges))
	}
	for _, p := range ps {
		if !loopless(p) {
			t.Error("loopy path returned")
		}
	}
	if ps[0].Key() == ps[1].Key() {
		t.Error("duplicate paths")
	}
}

func TestKShortestGrid(t *testing.T) {
	g := netgraph.Grid(3, 3, 1, 1)
	ps := KShortestAvoiding(g, 0, 8, 6, UnitCost, nil)
	if len(ps) != 6 {
		t.Fatalf("got %d paths, want 6 shortest grid paths", len(ps))
	}
	// Costs must be non-decreasing; corner-to-corner shortest is 4 hops.
	prev := 0.0
	for i, p := range ps {
		if p.Cost < prev-1e-12 {
			t.Errorf("path %d cost %g < previous %g", i, p.Cost, prev)
		}
		prev = p.Cost
		if !loopless(p) {
			t.Errorf("path %d has a loop", i)
		}
		if p.Nodes[0] != 0 || p.Nodes[len(p.Nodes)-1] != 8 {
			t.Errorf("path %d endpoints wrong", i)
		}
	}
	if len(ps[0].Edges) != 4 {
		t.Errorf("shortest corner path %d hops, want 4", len(ps[0].Edges))
	}
	// All six 4-hop monotone paths exist in a 3×3 grid.
	for i, p := range ps {
		if len(p.Edges) != 4 {
			t.Errorf("path %d: %d hops, want 4", i, len(p.Edges))
		}
	}
}

func TestKShortestEdgeCases(t *testing.T) {
	g := netgraph.Line(3, 1, 1)
	if ps := KShortestAvoiding(g, 0, 0, 3, UnitCost, nil); ps != nil {
		t.Error("src == dst should return nil")
	}
	if ps := KShortestAvoiding(g, 0, 2, 0, UnitCost, nil); ps != nil {
		t.Error("k = 0 should return nil")
	}
	ps := KShortestAvoiding(g, 0, 2, 10, UnitCost, nil)
	if len(ps) != 1 {
		t.Errorf("line has exactly 1 loopless path, got %d", len(ps))
	}
	// Unreachable.
	iso := netgraph.New("iso")
	a := iso.AddNode("", 0, 0)
	b := iso.AddNode("", 1, 1)
	if ps := KShortestAvoiding(iso, a, b, 3, UnitCost, nil); ps != nil {
		t.Error("unreachable pair returned paths")
	}
}

func TestPathClone(t *testing.T) {
	g := netgraph.Line(3, 1, 1)
	p, _ := Shortest(g, 0, 2, UnitCost, nil, nil)
	q := p.Clone()
	q.Edges[0] = 99
	q.Nodes[0] = 99
	if p.Edges[0] == 99 || p.Nodes[0] == 99 {
		t.Error("Clone shares storage")
	}
}

// TestPathKeyMatchesSprint holds the hand-built Key against the fmt
// rendering it replaced: the stage-2 tie-break hashes the string, so the
// canonical plans chosen under the old form must keep being chosen.
func TestPathKeyMatchesSprint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]netgraph.EdgeID{nil, {}, {0}, {-3, 7}, {1 << 40}}
	for i := 0; i < 200; i++ {
		edges := make([]netgraph.EdgeID, rng.Intn(12))
		for j := range edges {
			edges[j] = netgraph.EdgeID(rng.Intn(100000))
		}
		cases = append(cases, edges)
	}
	for _, edges := range cases {
		if got, want := (Path{Edges: edges}).Key(), fmt.Sprint(edges); got != want {
			t.Fatalf("Key() = %q, want %q", got, want)
		}
	}
}

func TestYenAgainstExhaustiveOnWaxman(t *testing.T) {
	// Property check: on a small random graph, Yen's first path matches
	// Dijkstra and each successive path is no shorter than the previous.
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{Nodes: 12, LinkPairs: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for src := netgraph.NodeID(0); src < 4; src++ {
		for dst := netgraph.NodeID(8); dst < 12; dst++ {
			if src == dst {
				continue
			}
			ps := KShortestAvoiding(g, src, dst, 8, UnitCost, nil)
			if len(ps) == 0 {
				t.Fatalf("%d->%d: no paths in connected graph", src, dst)
			}
			sp, _ := Shortest(g, src, dst, UnitCost, nil, nil)
			if math.Abs(ps[0].Cost-sp.Cost) > 1e-9 {
				t.Errorf("%d->%d: first Yen path cost %g != Dijkstra %g", src, dst, ps[0].Cost, sp.Cost)
			}
			seen := map[string]bool{}
			for i, p := range ps {
				if i > 0 && p.Cost < ps[i-1].Cost-1e-9 {
					t.Errorf("%d->%d: costs decrease at %d", src, dst, i)
				}
				if !loopless(p) {
					t.Errorf("%d->%d: path %d loops", src, dst, i)
				}
				if seen[p.Key()] {
					t.Errorf("%d->%d: duplicate path %d", src, dst, i)
				}
				seen[p.Key()] = true
				// Path validity: consecutive edges chain src→dst.
				at := src
				for _, eid := range p.Edges {
					e := g.Edge(eid)
					if e.From != at {
						t.Fatalf("%d->%d: path %d broken chain", src, dst, i)
					}
					at = e.To
				}
				if at != dst {
					t.Fatalf("%d->%d: path %d ends at %d", src, dst, i, at)
				}
			}
		}
	}
}

func TestEdgeDisjoint(t *testing.T) {
	// A 6-ring has exactly two edge-disjoint paths between opposite nodes.
	g := netgraph.Ring(6, 1, 1)
	ps := EdgeDisjointAvoiding(g, 0, 3, 5, UnitCost, nil)
	if len(ps) != 2 {
		t.Fatalf("got %d disjoint paths, want 2", len(ps))
	}
	if !Disjoint(ps) {
		t.Error("paths share an edge")
	}
	// Grid corner-to-corner: at least 2 disjoint paths exist.
	grid := netgraph.Grid(3, 3, 1, 1)
	gp := EdgeDisjointAvoiding(grid, 0, 8, 4, UnitCost, nil)
	if len(gp) < 2 {
		t.Errorf("grid: got %d disjoint paths", len(gp))
	}
	if !Disjoint(gp) {
		t.Error("grid paths share an edge")
	}
	// Degenerate inputs.
	if EdgeDisjointAvoiding(g, 0, 0, 3, UnitCost, nil) != nil {
		t.Error("src == dst")
	}
	if EdgeDisjointAvoiding(g, 0, 3, 0, UnitCost, nil) != nil {
		t.Error("k = 0")
	}
}

func TestDisjointDetectsSharing(t *testing.T) {
	g := netgraph.Ring(6, 1, 1)
	ps := KShortestAvoiding(g, 0, 2, 2, UnitCost, nil)
	if len(ps) < 2 {
		t.Skip("need 2 paths")
	}
	// Yen's 2nd-shortest from 0 to 2 on a ring shares no edges with the
	// first (it goes the other way), so construct an overlapping pair
	// manually.
	dup := []Path{ps[0], ps[0]}
	if Disjoint(dup) {
		t.Error("duplicate paths reported disjoint")
	}
}

func TestKShortestAvoiding(t *testing.T) {
	// Ring 0..3: clockwise 0->1->2 and counter-clockwise 0->3->2 both
	// reach node 2. Avoiding the first clockwise edge leaves only the
	// counter-clockwise route.
	g := netgraph.Ring(4, 1, 1)
	var e01 netgraph.EdgeID = -1
	for _, e := range g.Edges() {
		if e.From == 0 && e.To == 1 {
			e01 = e.ID
		}
	}
	if e01 < 0 {
		t.Fatal("ring has no 0->1 edge")
	}

	all := KShortestAvoiding(g, 0, 2, 4, UnitCost, nil)
	if len(all) != 2 {
		t.Fatalf("unrestricted KShortest found %d paths, want 2", len(all))
	}
	avoid := map[netgraph.EdgeID]bool{e01: true}
	got := KShortestAvoiding(g, 0, 2, 4, UnitCost, avoid)
	if len(got) != 1 {
		t.Fatalf("avoiding KShortest found %d paths, want 1", len(got))
	}
	for _, eid := range got[0].Edges {
		if eid == e01 {
			t.Error("avoided edge appears on the returned path")
		}
	}

	dj := EdgeDisjointAvoiding(g, 0, 2, 4, UnitCost, avoid)
	if len(dj) != 1 {
		t.Fatalf("avoiding EdgeDisjoint found %d paths, want 1", len(dj))
	}
	for _, eid := range dj[0].Edges {
		if eid == e01 {
			t.Error("avoided edge appears on the disjoint path")
		}
	}

	// Avoiding every outgoing edge of the source yields nothing.
	for _, eid := range g.Out(0) {
		avoid[eid] = true
	}
	if got := KShortestAvoiding(g, 0, 2, 4, UnitCost, avoid); len(got) != 0 {
		t.Errorf("fully-banned source still yielded %d paths", len(got))
	}
}

// loopless reports whether the path visits no node twice.
func loopless(p Path) bool {
	seen := make(map[netgraph.NodeID]bool, len(p.Nodes))
	for _, v := range p.Nodes {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}
