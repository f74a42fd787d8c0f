package schedule

import (
	"testing"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/timeslice"
)

// diamond builds 0 -> {1, 2} -> 3: two node-disjoint two-hop routes.
func diamond(t *testing.T, w int) *netgraph.Graph {
	t.Helper()
	g := netgraph.New("diamond")
	a := g.AddNode("a", 0, 0)
	u := g.AddNode("u", 1, 1)
	l := g.AddNode("l", 1, -1)
	b := g.AddNode("b", 2, 0)
	for _, pair := range [][2]netgraph.NodeID{{a, u}, {u, b}, {a, l}, {l, b}} {
		if err := g.AddPair(pair[0], pair[1], w, 10); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestInstanceAvoidsDeadLinks(t *testing.T) {
	g := diamond(t, 2)
	grid, err := timeslice.Uniform(0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []job.Job{{ID: 1, Src: 0, Dst: 3, Size: 2, Start: 0, End: 4}}

	full, err := NewInstance(g, grid, jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.JobPaths[0]) != 2 {
		t.Fatalf("full topology: %d paths, want 2", len(full.JobPaths[0]))
	}

	// Fail the upper route's first hop (a -> u): path sets on the residual
	// topology must exclude every path crossing it.
	var dead netgraph.EdgeID = -1
	for _, e := range g.Edges() {
		if e.From == 0 && e.To == 1 {
			dead = e.ID
		}
	}
	res, err := g.WithLinksDown(dead)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := NewInstance(res, grid, jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ri.JobPaths[0]) != 1 {
		t.Fatalf("residual topology: %d paths, want 1", len(ri.JobPaths[0]))
	}
	for _, eid := range ri.JobPaths[0][0].Edges {
		if eid == dead {
			t.Error("residual path crosses the dead link")
		}
	}

	// A job whose every route is dead is rejected up front.
	var downAll []netgraph.EdgeID
	for _, e := range g.Edges() {
		if e.From == 0 || e.To == 3 {
			downAll = append(downAll, e.ID)
		}
	}
	iso, err := g.WithLinksDown(downAll...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInstance(iso, grid, jobs, 4); err == nil {
		t.Error("job with all routes dead was accepted")
	}
}

func TestMaskLinksDown(t *testing.T) {
	g := diamond(t, 3)
	grid, err := timeslice.Uniform(0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []job.Job{{ID: 1, Src: 0, Dst: 3, Size: 2, Start: 0, End: 4}}
	inst, err := NewInstance(g, grid, jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := maskLinksDown(inst, []netgraph.EdgeID{0, 2}, 1, 2); err != nil {
		t.Fatal(err)
	}
	for _, e := range []netgraph.EdgeID{0, 2} {
		for j := 0; j < 4; j++ {
			want := 3
			if j == 1 || j == 2 {
				want = 0
			}
			if got := inst.Capacity(e, j); got != want {
				t.Errorf("capacity(%d, %d) = %d, want %d", e, j, got, want)
			}
		}
	}
	if err := maskLinksDown(inst, []netgraph.EdgeID{99}, 0, 0); err == nil {
		t.Error("unknown edge accepted")
	}
	if err := maskLinksDown(inst, []netgraph.EdgeID{0}, 2, 7); err == nil {
		t.Error("out-of-grid slice accepted")
	}
}
