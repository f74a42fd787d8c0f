// Package netgraph models wavelength-switched research networks as directed
// graphs whose edges carry an integer number of wavelengths, and provides
// the topology builders used by the paper's evaluation: Waxman random
// graphs (the BRITE generator's router-Waxman mode) and the Abilene
// (Internet2) backbone, plus simple synthetic shapes for tests.
package netgraph

import (
	"fmt"
	"math"
)

// NodeID identifies a node within a Graph.
type NodeID int

// EdgeID identifies a directed edge within a Graph.
type EdgeID int

// Node is a network node, optionally placed on a plane (used by the Waxman
// generator and by distance-weighted routing).
type Node struct {
	ID   NodeID
	Name string
	X, Y float64
}

// Edge is a directed link with an integer wavelength capacity. GbpsPerWave
// records the data rate of one wavelength so demands can be normalized.
type Edge struct {
	ID          EdgeID
	From, To    NodeID
	Wavelengths int     // C_e: number of wavelengths on the link
	GbpsPerWave float64 // capacity per wavelength in Gb/s
}

// TotalGbps returns the aggregate capacity of the edge.
func (e Edge) TotalGbps() float64 { return float64(e.Wavelengths) * e.GbpsPerWave }

// Graph is a directed network. Nodes and edges are stored densely and
// addressed by their IDs; out-adjacency is maintained incrementally.
type Graph struct {
	Name  string
	nodes []Node
	edges []Edge
	out   [][]EdgeID // out[v] lists edges leaving v
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// AddNode adds a node and returns its ID.
func (g *Graph) AddNode(name string, x, y float64) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, X: x, Y: y})
	g.out = append(g.out, nil)
	return id
}

// AddEdge adds a directed edge from -> to and returns its ID.
func (g *Graph) AddEdge(from, to NodeID, wavelengths int, gbpsPerWave float64) (EdgeID, error) {
	if err := g.checkNode(from); err != nil {
		return 0, err
	}
	if err := g.checkNode(to); err != nil {
		return 0, err
	}
	if from == to {
		return 0, fmt.Errorf("netgraph: self-loop at node %d", from)
	}
	if wavelengths < 0 {
		return 0, fmt.Errorf("netgraph: negative wavelength count %d", wavelengths)
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Wavelengths: wavelengths, GbpsPerWave: gbpsPerWave})
	g.out[from] = append(g.out[from], id)
	return id, nil
}

// AddPair adds the two directed edges of a bidirectional link.
func (g *Graph) AddPair(a, b NodeID, wavelengths int, gbpsPerWave float64) error {
	if _, err := g.AddEdge(a, b, wavelengths, gbpsPerWave); err != nil {
		return err
	}
	_, err := g.AddEdge(b, a, wavelengths, gbpsPerWave)
	return err
}

func (g *Graph) checkNode(v NodeID) error {
	if int(v) < 0 || int(v) >= len(g.nodes) {
		return fmt.Errorf("netgraph: unknown node %d", v)
	}
	return nil
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns node v.
func (g *Graph) Node(v NodeID) Node { return g.nodes[v] }

// Edge returns edge e.
func (g *Graph) Edge(e EdgeID) Edge { return g.edges[e] }

// Edges returns a copy of the edge list.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Out returns the IDs of edges leaving v (shared slice; do not modify).
func (g *Graph) Out(v NodeID) []EdgeID { return g.out[v] }

// Dist returns the Euclidean distance between two nodes' positions.
func (g *Graph) Dist(a, b NodeID) float64 {
	na, nb := g.nodes[a], g.nodes[b]
	return math.Hypot(na.X-nb.X, na.Y-nb.Y)
}
