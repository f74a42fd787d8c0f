package paths

import (
	"fmt"
	"testing"

	"wavesched/internal/netgraph"
)

func benchGraph(b *testing.B, nodes int) *netgraph.Graph {
	b.Helper()
	g, err := netgraph.Waxman(netgraph.WaxmanConfig{
		Nodes: nodes, LinkPairs: 2 * nodes, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkDijkstra(b *testing.B) {
	for _, n := range []int{50, 200, 400} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			g := benchGraph(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := Shortest(g, 0, netgraph.NodeID(n-1), UnitCost, nil, nil); !ok {
					b.Fatal("no path")
				}
			}
		})
	}
}

func BenchmarkYenKShortest(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			g := benchGraph(b, 100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ps := KShortestAvoiding(g, 0, 99, k, UnitCost, nil); len(ps) == 0 {
					b.Fatal("no paths")
				}
			}
		})
	}
}

func BenchmarkEdgeDisjoint(b *testing.B) {
	g := benchGraph(b, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ps := EdgeDisjointAvoiding(g, 0, 99, 4, UnitCost, nil); len(ps) == 0 {
			b.Fatal("no paths")
		}
	}
}
