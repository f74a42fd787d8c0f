package netgraph

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

const sampleBRITE = `Topology: ( 4 Nodes, 4 Edges )
Model ( 2 ): Waxman

Nodes: ( 4 )
0 10.0 20.0 2 2 -1 RT_NODE
1 30.0 20.0 2 2 -1 RT_NODE
2 30.0 40.0 2 2 -1 RT_NODE
3 10.0 40.0 2 2 -1 RT_NODE

Edges: ( 4 )
0 0 1 20.0 0.0001 10.0 -1 -1 E_RT
1 1 2 20.0 0.0001 10.0 -1 -1 E_RT
2 2 3 20.0 0.0001 10.0 -1 -1 E_RT
3 3 0 20.0 0.0001 10.0 -1 -1 E_RT
`

func TestReadBRITE(t *testing.T) {
	g, err := ReadBRITE(strings.NewReader(sampleBRITE), 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 8 { // 4 undirected → 8 directed
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if !connected(g) {
		t.Error("ring not connected")
	}
	e := g.Edge(0)
	if e.Wavelengths != 2 {
		t.Errorf("wavelengths = %d", e.Wavelengths)
	}
	if math.Abs(e.TotalGbps()-10) > 1e-9 {
		t.Errorf("link rate %g, want 10 (from the bandwidth field)", e.TotalGbps())
	}
	if g.Node(0).X != 10 || g.Node(0).Y != 20 {
		t.Errorf("node 0 position (%g, %g)", g.Node(0).X, g.Node(0).Y)
	}
}

func TestReadBRITEDefaults(t *testing.T) {
	// Missing/zero bandwidth falls back to 20 Gb/s; wavelengths ≤ 0
	// falls back to 4.
	text := `Nodes: ( 2 )
0 0 0 1 1 -1 RT_NODE
1 1 1 1 1 -1 RT_NODE
Edges: ( 1 )
0 0 1
`
	g, err := ReadBRITE(strings.NewReader(text), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edge(0)
	if e.Wavelengths != 4 || math.Abs(e.TotalGbps()-20) > 1e-9 {
		t.Errorf("defaults: W=%d rate=%g", e.Wavelengths, e.TotalGbps())
	}
}

func TestReadBRITEErrors(t *testing.T) {
	bad := []string{
		"",                             // empty
		"0 0 0 1 1 -1 RT_NODE\n",       // data before a section
		"Nodes: ( 1 )\nxx 0 0\n",       // bad node id
		"Nodes: ( 1 )\n0 0\n",          // short node line
		"Nodes: ( 1 )\n0 0 0\n0 1 1\n", // duplicate node id
		"Nodes: ( 1 )\n0 0 0\nEdges: ( 1 )\n0 0 9\n",  // unknown endpoint
		"Nodes: ( 1 )\n0 0 0\nEdges: ( 1 )\n0 zz 1\n", // bad edge ids
	}
	for i, text := range bad {
		if _, err := ReadBRITE(strings.NewReader(text), 2); err == nil {
			t.Errorf("case %d accepted:\n%s", i, text)
		}
	}
}

func TestBRITERoundTrip(t *testing.T) {
	orig, err := Waxman(WaxmanConfig{Nodes: 15, LinkPairs: 30, Wavelengths: 4, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WriteBRITE(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBRITE(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != orig.NumNodes() {
		t.Fatalf("nodes %d vs %d", back.NumNodes(), orig.NumNodes())
	}
	if back.NumEdges() != orig.NumEdges() {
		t.Fatalf("edges %d vs %d", back.NumEdges(), orig.NumEdges())
	}
	if !connected(back) {
		t.Error("round-tripped graph disconnected")
	}
	// Total capacity preserved per link.
	if math.Abs(back.Edge(0).TotalGbps()-orig.Edge(0).TotalGbps()) > 1e-9 {
		t.Errorf("capacity %g vs %g", back.Edge(0).TotalGbps(), orig.Edge(0).TotalGbps())
	}
}
