package netgraph

import (
	"bytes"
	"math"
	"testing"
)

func TestAddNodesAndEdges(t *testing.T) {
	g := New("t")
	a := g.AddNode("a", 0, 0)
	b := g.AddNode("b", 3, 4)
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	e, err := g.AddEdge(a, b, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	ed := g.Edge(e)
	if ed.From != a || ed.To != b || ed.Wavelengths != 4 || ed.GbpsPerWave != 5 {
		t.Fatalf("edge = %+v", ed)
	}
	if ed.TotalGbps() != 20 {
		t.Errorf("TotalGbps = %g", ed.TotalGbps())
	}
	if math.Abs(g.Dist(a, b)-5) > 1e-12 {
		t.Errorf("Dist = %g, want 5", g.Dist(a, b))
	}
	if len(g.Out(a)) != 1 || g.Out(a)[0] != e {
		t.Errorf("Out(a) = %v", g.Out(a))
	}
	if g.Node(a).Name != "a" {
		t.Errorf("node name %q", g.Node(a).Name)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New("t")
	a := g.AddNode("a", 0, 0)
	if _, err := g.AddEdge(a, a, 1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := g.AddEdge(a, NodeID(99), 1, 1); err == nil {
		t.Error("unknown node accepted")
	}
	if _, err := g.AddEdge(NodeID(-1), a, 1, 1); err == nil {
		t.Error("negative node accepted")
	}
	b := g.AddNode("b", 1, 1)
	if _, err := g.AddEdge(a, b, -1, 1); err == nil {
		t.Error("negative wavelength count accepted")
	}
}

func TestAddPair(t *testing.T) {
	g := New("t")
	a := g.AddNode("a", 0, 0)
	b := g.AddNode("b", 1, 0)
	if err := g.AddPair(a, b, 2, 10); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestConnected(t *testing.T) {
	if !connected(New("empty")) {
		t.Error("empty graph should count as connected")
	}
	g := Line(4, 1, 1)
	if !connected(g) {
		t.Error("line should be connected")
	}
	// Two isolated nodes.
	h := New("iso")
	h.AddNode("a", 0, 0)
	h.AddNode("b", 1, 1)
	if connected(h) {
		t.Error("disconnected graph reported connected")
	}
	// One-directional edge only: not strongly connected.
	d := New("dir")
	a := d.AddNode("a", 0, 0)
	b := d.AddNode("b", 1, 1)
	if _, err := d.AddEdge(a, b, 1, 1); err != nil {
		t.Fatal(err)
	}
	if connected(d) {
		t.Error("one-way pair reported strongly connected")
	}
}

func TestBuilders(t *testing.T) {
	ring := Ring(5, 2, 10)
	if ring.NumNodes() != 5 || ring.NumEdges() != 10 {
		t.Errorf("ring dims %d/%d", ring.NumNodes(), ring.NumEdges())
	}
	if !connected(ring) {
		t.Error("ring not connected")
	}
	grid := Grid(3, 4, 2, 10)
	if grid.NumNodes() != 12 {
		t.Errorf("grid nodes %d", grid.NumNodes())
	}
	// 3×4 grid: horizontal pairs 3·3=9, vertical 2·4=8 ⇒ 17 pairs, 34 edges.
	if grid.NumEdges() != 34 {
		t.Errorf("grid edges %d, want 34", grid.NumEdges())
	}
	if !connected(grid) {
		t.Error("grid not connected")
	}
}

func TestAbilene(t *testing.T) {
	g := Abilene(4)
	if g.NumNodes() != 11 {
		t.Fatalf("nodes = %d, want 11", g.NumNodes())
	}
	if g.NumEdges() != 28 { // 14 pairs
		t.Fatalf("edges = %d, want 28", g.NumEdges())
	}
	if !connected(g) {
		t.Error("Abilene not connected")
	}
	// 20 Gb/s per link regardless of wavelength count.
	if math.Abs(g.Edge(0).TotalGbps()-20) > 1e-9 {
		t.Errorf("link capacity %g, want 20", g.Edge(0).TotalGbps())
	}

	d := AbileneDense(2)
	if d.NumNodes() != 11 || d.NumEdges() != 40 { // 20 pairs as in the paper
		t.Fatalf("dense dims %d/%d, want 11/40", d.NumNodes(), d.NumEdges())
	}
	if !connected(d) {
		t.Error("dense Abilene not connected")
	}
	// Default wavelength count on non-positive input.
	if Abilene(0).Edge(0).Wavelengths != 4 {
		t.Error("default wavelengths")
	}
}

func TestWaxman(t *testing.T) {
	cfg := WaxmanConfig{Nodes: 50, LinkPairs: 100, Seed: 1}
	g, err := Waxman(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 50 {
		t.Errorf("nodes = %d", g.NumNodes())
	}
	// 100 pairs: average out-degree 4 when pairs = 2·nodes, as in the
	// paper's setup.
	if g.NumEdges() != 200 {
		t.Errorf("edges = %d, want 200", g.NumEdges())
	}
	if !connected(g) {
		t.Error("waxman graph not connected")
	}

	// Determinism under the same seed.
	g2, err := Waxman(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Error("same seed produced different graphs")
	}
	for i := 0; i < g.NumEdges(); i++ {
		if g.Edge(EdgeID(i)).From != g2.Edge(EdgeID(i)).From || g.Edge(EdgeID(i)).To != g2.Edge(EdgeID(i)).To {
			t.Fatalf("edge %d differs between same-seed runs", i)
		}
	}
}

func TestWaxmanErrors(t *testing.T) {
	if _, err := Waxman(WaxmanConfig{Nodes: 1, LinkPairs: 1}); err == nil {
		t.Error("1 node accepted")
	}
	if _, err := Waxman(WaxmanConfig{Nodes: 10, LinkPairs: 3}); err == nil {
		t.Error("too few pairs accepted")
	}
	if _, err := Waxman(WaxmanConfig{Nodes: 4, LinkPairs: 100}); err == nil {
		t.Error("too many pairs accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g, err := Waxman(WaxmanConfig{Nodes: 10, LinkPairs: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() || h.Name != g.Name {
		t.Fatalf("round trip mismatch: %d/%d vs %d/%d", h.NumNodes(), h.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for i := 0; i < g.NumEdges(); i++ {
		a, b := g.Edge(EdgeID(i)), h.Edge(EdgeID(i))
		if a.From != b.From || a.To != b.To || a.Wavelengths != b.Wavelengths {
			t.Fatalf("edge %d mismatch", i)
		}
	}
	if _, err := ReadJSON(bytes.NewBufferString("not json")); err == nil {
		t.Error("bad JSON accepted")
	}
}

func TestEdgesCopy(t *testing.T) {
	g := Line(3, 2, 1)
	edges := g.Edges()
	edges[0].Wavelengths = 999
	if g.Edge(0).Wavelengths == 999 {
		t.Error("Edges() returned a shared slice")
	}
}

func TestGeant2(t *testing.T) {
	g := Geant2(4)
	if g.NumNodes() != 22 {
		t.Fatalf("nodes = %d, want 22", g.NumNodes())
	}
	if g.NumEdges() != 64 { // 32 pairs
		t.Fatalf("edges = %d, want 64", g.NumEdges())
	}
	if !connected(g) {
		t.Error("GEANT2 not connected")
	}
	if math.Abs(g.Edge(0).TotalGbps()-10) > 1e-9 {
		t.Errorf("link rate %g, want 10", g.Edge(0).TotalGbps())
	}
	if Geant2(0).Edge(0).Wavelengths != 4 {
		t.Error("default wavelengths")
	}
	// Every node name is unique and non-empty.
	seen := map[string]bool{}
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(NodeID(i)).Name
		if n == "" || seen[n] {
			t.Errorf("bad node name %q", n)
		}
		seen[n] = true
	}
}

// connected reports whether the graph is strongly connected when every
// edge is usable (every node reaches every other via directed edges), the
// property the topology generators are checked for. Empty graphs count as
// connected.
func connected(g *Graph) bool {
	n := len(g.nodes)
	if n <= 1 {
		return true
	}
	// Strong connectivity via forward BFS from node 0 plus BFS on the
	// reversed graph.
	if !reaches(g, 0, false) {
		return false
	}
	return reaches(g, 0, true)
}

// reaches reports whether BFS from src covers every node, optionally on
// the reversed graph.
func reaches(g *Graph, src NodeID, reversed bool) bool {
	n := len(g.nodes)
	seen := make([]bool, n)
	queue := []NodeID{src}
	seen[src] = true
	count := 1
	var rev [][]NodeID
	if reversed {
		rev = make([][]NodeID, n)
		for _, e := range g.edges {
			rev[e.To] = append(rev[e.To], e.From)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if reversed {
			for _, u := range rev[v] {
				if !seen[u] {
					seen[u] = true
					count++
					queue = append(queue, u)
				}
			}
		} else {
			for _, eid := range g.out[v] {
				u := g.edges[eid].To
				if !seen[u] {
					seen[u] = true
					count++
					queue = append(queue, u)
				}
			}
		}
	}
	return count == n
}
