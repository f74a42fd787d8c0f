package main

import (
	"fmt"
	"math"

	"wavesched/internal/controller"
	"wavesched/internal/netgraph"
)

// This file is the benchmark's own output checker. It deliberately shares
// no code with schedule.Assignment.Verify*: it sees only what a client of
// the daemon sees — the /v1/schedule and /v1/jobs JSON and the topology it
// submitted against — so a bug in the scheduler's self-checks cannot hide a
// bad schedule from it.

const verifyTol = 1e-6

// scheduleDoc mirrors the GET /v1/schedule body.
type scheduleDoc struct {
	Committed bool    `json:"committed"`
	Start     float64 `json:"start"`
	End       float64 `json:"end"`
	Jobs      []struct {
		JobID int `json:"job_id"`
		Paths []struct {
			Edges  []int `json:"edges"`
			Slices []struct {
				T     float64 `json:"t"`
				Len   float64 `json:"len"`
				Waves float64 `json:"waves"`
			} `json:"slices"`
		} `json:"paths"`
	} `json:"jobs"`
}

// jobsDoc mirrors the GET /v1/jobs body.
type jobsDoc struct {
	Jobs []jobStatus `json:"jobs"`
}

type jobStatus struct {
	JobID        int     `json:"job_id"`
	Src          int     `json:"src"`
	Dst          int     `json:"dst"`
	Size         float64 `json:"size"`
	Start        float64 `json:"start"`
	End          float64 `json:"end"`
	State        string  `json:"state"`
	Delivered    float64 `json:"delivered"`
	Remaining    float64 `json:"remaining"`
	EffectiveEnd float64 `json:"effective_end"`
}

// verifySchedule checks one committed schedule against the paper's
// guarantees: integer wavelengths, no (edge, slice) over its wavelength
// count, flow only inside each job's [start, effective_end] window, only
// along a connected src→dst path, and never on a link that is down.
//
// ret widens the window's end to the RET envelope: SolveRET extends the
// deadline a job entered the epoch with (endBefore, its effective end
// before the tick) by up to (1+BMax) from the planning instant, while the
// effective_end the daemon reports afterwards is re-derived from the
// original deadline and can lag the plan it committed.
func verifySchedule(g *netgraph.Graph, doc *scheduleDoc, jobs []jobStatus, down map[int]bool,
	ret bool, endBefore map[int]float64) []string {
	var bad []string
	byID := make(map[int]jobStatus, len(jobs))
	for _, j := range jobs {
		if ret {
			end, ok := endBefore[j.JobID]
			if !ok {
				end = j.End
			}
			if env := doc.Start + (end-doc.Start)*(1+bMax); env > j.EffectiveEnd {
				j.EffectiveEnd = env
			}
		}
		byID[j.JobID] = j
	}
	type cell struct {
		edge int
		t    float64
	}
	load := make(map[cell]float64)
	for _, sj := range doc.Jobs {
		js, ok := byID[sj.JobID]
		if !ok {
			bad = append(bad, fmt.Sprintf("job %d scheduled but unknown to /v1/jobs", sj.JobID))
			continue
		}
		for _, p := range sj.Paths {
			at := js.Src
			for _, e := range p.Edges {
				if e < 0 || e >= g.NumEdges() {
					bad = append(bad, fmt.Sprintf("job %d: unknown edge %d", sj.JobID, e))
					at = -1
					break
				}
				edge := g.Edge(netgraph.EdgeID(e))
				if int(edge.From) != at {
					bad = append(bad, fmt.Sprintf("job %d: path breaks at edge %d", sj.JobID, e))
					at = -1
					break
				}
				at = int(edge.To)
				if down[e] {
					bad = append(bad, fmt.Sprintf("job %d: flow on down link %d", sj.JobID, e))
				}
			}
			if at >= 0 && at != js.Dst {
				bad = append(bad, fmt.Sprintf("job %d: path ends at %d, not %d", sj.JobID, at, js.Dst))
			}
			for _, s := range p.Slices {
				if math.Abs(s.Waves-math.Round(s.Waves)) > verifyTol || s.Waves < 0 {
					bad = append(bad, fmt.Sprintf("job %d: %g wavelengths at t=%g is not a whole number", sj.JobID, s.Waves, s.T))
				}
				if s.T < js.Start-verifyTol || s.T+s.Len > js.EffectiveEnd+verifyTol {
					bad = append(bad, fmt.Sprintf("job %d: flow in [%g, %g] outside window [%g, %g]",
						sj.JobID, s.T, s.T+s.Len, js.Start, js.EffectiveEnd))
				}
				for _, e := range p.Edges {
					load[cell{e, s.T}] += s.Waves
				}
			}
		}
	}
	for c, l := range load {
		if c.edge < 0 || c.edge >= g.NumEdges() {
			continue
		}
		if w := float64(g.Edge(netgraph.EdgeID(c.edge)).Wavelengths); l > w+verifyTol {
			bad = append(bad, fmt.Sprintf("edge %d at t=%g carries %g of %g wavelengths", c.edge, c.t, l, w))
		}
	}
	return bad
}

// verifyRecords checks the final accounting: exactly one record per
// submitted job, nothing delivered beyond the request, and completed
// meaning delivered in full.
func verifyRecords(records []controller.Record, submitted []submitBody) []string {
	var bad []string
	want := make(map[int]submitBody, len(submitted))
	for _, s := range submitted {
		want[s.ID] = s
	}
	seen := make(map[int]bool, len(records))
	for _, r := range records {
		id := int(r.Job.ID)
		s, ok := want[id]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("record for job %d that was never submitted", id))
			continue
		case seen[id]:
			bad = append(bad, fmt.Sprintf("job %d has more than one record", id))
			continue
		}
		seen[id] = true
		if r.Delivered > s.Size+verifyTol {
			bad = append(bad, fmt.Sprintf("job %d delivered %g of %g", id, r.Delivered, s.Size))
		}
		if r.Completed && math.Abs(r.Delivered-s.Size) > verifyTol {
			bad = append(bad, fmt.Sprintf("job %d completed with %g of %g delivered", id, r.Delivered, s.Size))
		}
		if r.MetDeadline && (!r.Completed || r.FinishTime > s.End+verifyTol) {
			bad = append(bad, fmt.Sprintf("job %d marked on time but finished at %g (end %g, completed %v)",
				id, r.FinishTime, s.End, r.Completed))
		}
	}
	for _, s := range submitted {
		if !seen[s.ID] {
			bad = append(bad, fmt.Sprintf("job %d has no record", s.ID))
		}
	}
	return bad
}

// verifyPending checks that a restarted daemon holds exactly the accepted
// storm submissions as pending jobs, tuple for tuple.
func verifyPending(jobs []jobStatus, accepted []submitBody) []string {
	var bad []string
	got := make(map[int]jobStatus)
	for _, j := range jobs {
		if j.State == string(controller.JobPending) {
			got[j.JobID] = j
		}
	}
	for _, s := range accepted {
		j, ok := got[s.ID]
		if !ok {
			bad = append(bad, fmt.Sprintf("accepted job %d is not pending after replay", s.ID))
			continue
		}
		if j.Src != s.Src || j.Dst != s.Dst || j.Size != s.Size || j.Start != s.Start || j.End != s.End {
			bad = append(bad, fmt.Sprintf("job %d changed across replay", s.ID))
		}
		delete(got, s.ID)
	}
	for id := range got {
		bad = append(bad, fmt.Sprintf("job %d pending after replay but never accepted", id))
	}
	return bad
}
