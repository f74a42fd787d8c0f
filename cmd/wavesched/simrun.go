package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"wavesched/internal/controller"
	"wavesched/internal/job"
	"wavesched/internal/metrics"
	"wavesched/internal/netgraph"
	"wavesched/internal/sim"
)

// simOptions collects the -algo sim flags.
type simOptions struct {
	Tau      float64
	SliceLen float64
	K        int
	Alpha    float64
	BMax     float64
	Policy   string
	MaxTime  float64
	JSON     bool // emit the run result as JSON instead of text

	// ColumnGen prices path columns on demand instead of enumerating K
	// paths per job upfront.
	ColumnGen bool

	FailTrace string  // JSON link-event trace to inject
	MTBF      float64 // generate failures with this mean up-time (0 = off)
	MTTR      float64 // mean repair time for generated failures
	FailSeed  int64   // seed for the generated failure process

	// Explain, when set, names the job whose decision history the run
	// reports instead of its summary.
	Explain *job.ID
}

func parsePolicy(s string) (controller.Policy, error) {
	switch s {
	case "maxthroughput":
		return controller.PolicyMaxThroughput, nil
	case "ret":
		return controller.PolicyRET, nil
	case "reject":
		return controller.PolicyReject, nil
	}
	return 0, fmt.Errorf("unknown -policy %q (want maxthroughput, ret, or reject)", s)
}

// loadFailures builds the link failure trace: from a file when -fail-trace
// is given, from the seeded MTBF/MTTR process when -mtbf is set, or none.
func loadFailures(g *netgraph.Graph, o simOptions) ([]sim.LinkEvent, error) {
	if o.FailTrace != "" {
		f, err := os.Open(o.FailTrace)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		evs, err := sim.ReadLinkTrace(f)
		if err != nil {
			return nil, err
		}
		for i, ev := range evs {
			if int(ev.Edge) >= g.NumEdges() {
				return nil, fmt.Errorf("link trace event %d: edge %d outside the %d-edge network",
					i, ev.Edge, g.NumEdges())
			}
		}
		return evs, nil
	}
	if o.MTBF > 0 {
		if o.MaxTime <= 0 {
			return nil, fmt.Errorf("-mtbf needs -max-time to bound the generated failure trace")
		}
		return sim.GenerateFailures(g, sim.FailureConfig{
			MTBF: o.MTBF, MTTR: o.MTTR, Seed: o.FailSeed, MaxTime: o.MaxTime,
		})
	}
	return nil, nil
}

// runSim drives the periodic controller over the workload, optionally
// injecting link failures, and prints the run summary plus a disruption
// report, or, under Explain, one job's decision history.
func runSim(w io.Writer, g *netgraph.Graph, jobs []job.Job, o simOptions) error {
	policy, err := parsePolicy(o.Policy)
	if err != nil {
		return err
	}
	failures, err := loadFailures(g, o)
	if err != nil {
		return err
	}
	ctrl, err := controller.New(g, controller.Config{
		Tau: o.Tau, SliceLen: o.SliceLen, K: o.K, Alpha: o.Alpha,
		Policy: policy, BMax: o.BMax, Solver: lpOptions(), Tracer: tracer,
		ColumnGen: o.ColumnGen,
	})
	if err != nil {
		return err
	}
	res, err := sim.RunWithFailures(ctrl, jobs, failures, o.MaxTime)
	if err != nil {
		return err
	}
	if o.Explain != nil {
		return writeExplanation(w, ctrl, jobs, *o.Explain, o.JSON)
	}
	if o.JSON {
		return writeSimJSON(w, ctrl, res)
	}

	s := res.Summary
	fmt.Fprintf(w, "simulated %d epochs to t=%.2f (τ=%g, policy %s, %d link events)\n",
		res.Epochs, res.EndTime, o.Tau, o.Policy, len(failures))
	fmt.Fprintf(w, "jobs: %d total, %d completed, %d on time, %d rejected, %d dropped by failures\n",
		s.Total, s.Completed, s.MetDeadline, s.Rejected, s.Disrupted)
	fmt.Fprintf(w, "delivered %.2f of %.2f requested wavelength-slices\n", s.Delivered, s.Requested)
	if s.Completed > 0 {
		fmt.Fprintf(w, "average finish time: %.2f\n", s.AvgFinish)
	}

	degraded := 0
	for _, ep := range ctrl.EpochStats() {
		if ep.Degraded {
			degraded++
		}
	}
	if degraded > 0 {
		fmt.Fprintf(w, "degraded epochs: %d of %d\n", degraded, res.Epochs)
	}
	if down := ctrl.DownLinks(); len(down) > 0 {
		fmt.Fprintf(w, "links still down at end of run: %v\n", down)
	}

	if len(res.Disruptions) > 0 {
		fmt.Fprintln(w)
		t := metrics.NewTable("disruption report", "job", "t", "link", "outcome")
		for _, d := range res.Disruptions {
			e := g.Edge(d.Edge)
			t.AddRow(
				fmt.Sprintf("%d", d.JobID),
				fmt.Sprintf("%.2f", d.Time),
				fmt.Sprintf("%s->%s", nodeLabel(g, e.From), nodeLabel(g, e.To)),
				d.Outcome.String(),
			)
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// simJSON is the -json shape of a sim run: the same wire types the serve
// daemon's API uses, so downstream tooling can consume either source.
type simJSON struct {
	Epochs      int                         `json:"epochs"`
	EndTime     float64                     `json:"end_time"`
	Summary     controller.SummaryJSON      `json:"summary"`
	Records     []controller.RecordJSON     `json:"records"`
	EpochStats  []controller.EpochStatJSON  `json:"epoch_stats"`
	Disruptions []controller.DisruptionJSON `json:"disruptions"`
}

func writeSimJSON(w io.Writer, ctrl *controller.Controller, res *sim.RunResult) error {
	recs := append([]controller.Record(nil), res.Records...)
	controller.SortRecordsByFinish(recs)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(simJSON{
		Epochs:      res.Epochs,
		EndTime:     res.EndTime,
		Summary:     res.Summary.JSON(),
		Records:     controller.RecordsJSON(recs),
		EpochStats:  controller.EpochStatsJSON(ctrl.EpochStats()),
		Disruptions: controller.DisruptionsJSON(res.Disruptions),
	})
}

// writeExplanation writes the decision history of job id — every admission
// verdict, component assignment, probe bound, disruption and final outcome
// the run produced for it — as a table, or under asJSON in the
// /v1/jobs/{id}/explain wire format.
func writeExplanation(w io.Writer, ctrl *controller.Controller, jobs []job.Job, id job.ID, asJSON bool) error {
	exp, ok := ctrl.Explain(id)
	if !ok {
		return fmt.Errorf("-explain: job %d never reached the controller (IDs: %s)", id, idRange(jobs))
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(exp.JSON())
	}
	fmt.Fprintf(w, "job %d: %d decision events\n\n", id, len(exp.Events))
	t := metrics.NewTable("decision history", "seq", "epoch", "t", "kind", "component", "bhat", "b", "detail")
	for _, ev := range exp.Events {
		comp, bhat, b := "-", "-", "-"
		if ev.Component != "" {
			comp = ev.Component
		}
		if ev.BHat != 0 {
			bhat = fmt.Sprintf("%.3f", ev.BHat)
		}
		if ev.B != 0 {
			b = fmt.Sprintf("%.3f", ev.B)
		}
		t.AddRow(
			fmt.Sprintf("%d", ev.Seq),
			fmt.Sprintf("%d", ev.Epoch),
			fmt.Sprintf("%.2f", ev.Time),
			ev.Kind, comp, bhat, b, ev.Detail,
		)
	}
	return t.Render(w)
}

// idRange summarizes the workload's job IDs for the not-found error.
func idRange(jobs []job.Job) string {
	if len(jobs) == 0 {
		return "none"
	}
	lo, hi := jobs[0].ID, jobs[0].ID
	for _, j := range jobs[1:] {
		if j.ID < lo {
			lo = j.ID
		}
		if j.ID > hi {
			hi = j.ID
		}
	}
	return fmt.Sprintf("%d..%d", lo, hi)
}
