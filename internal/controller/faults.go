package controller

import (
	"errors"
	"fmt"
	"sort"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
	"wavesched/internal/paths"
	"wavesched/internal/schedule"
)

// DisruptionOutcome classifies what happened to a job whose committed
// schedule a link failure invalidated.
type DisruptionOutcome int

// Disruption outcomes.
const (
	// RescheduledOnTime: the job was replanned over the residual topology
	// and still projects to finish by its original end time.
	RescheduledOnTime DisruptionOutcome = iota
	// RescheduledLate: the job was replanned but projects to finish after
	// its original end time (or not within the current plan at all).
	RescheduledLate
	// DisruptedDropped: no residual route or usable window remained; the
	// job was retired with unmet demand.
	DisruptedDropped
)

// String names the outcome.
func (o DisruptionOutcome) String() string {
	switch o {
	case RescheduledOnTime:
		return "rescheduled-on-time"
	case RescheduledLate:
		return "rescheduled-late"
	case DisruptedDropped:
		return "dropped"
	}
	return fmt.Sprintf("DisruptionOutcome(%d)", int(o))
}

// Disruption records one job disturbed by one link failure.
type Disruption struct {
	JobID   job.ID
	Time    float64
	Edge    netgraph.EdgeID
	Outcome DisruptionOutcome
}

// ErrStaleEvent reports a link event dated before an event the controller
// already applied — an earlier link event or a scheduling instant. The
// transfers credited since then cannot be taken back, so such an event is
// refused. Test with errors.Is.
var ErrStaleEvent = errors.New("link event predates an applied event")

// CheckLinkEvent reports whether a link event on e at t would be refused:
// an unknown edge, or ErrStaleEvent. It changes nothing, so a caller can
// ask before it logs the event.
func (c *Controller) CheckLinkEvent(e netgraph.EdgeID, t float64) error {
	if int(e) < 0 || int(e) >= c.g.NumEdges() {
		return fmt.Errorf("controller: unknown edge %d", e)
	}
	if t < c.lastEvent {
		return fmt.Errorf("controller: link %d at t=%g, after an event at t=%g: %w", e, t, c.lastEvent, ErrStaleEvent)
	}
	return nil
}

// applied moves the clock of applied events up to t.
func (c *Controller) applied(t float64) {
	if t > c.lastEvent {
		c.lastEvent = t
	}
}

func (c *Controller) addDisruption(id job.ID, t float64, e netgraph.EdgeID, o DisruptionOutcome) {
	switch o {
	case RescheduledOnTime:
		telReschedOnTime.Inc()
	case RescheduledLate:
		telReschedLate.Inc()
	case DisruptedDropped:
		telDroppedJobs.Inc()
	}
	c.disruptions = append(c.disruptions, Disruption{JobID: id, Time: t, Edge: e, Outcome: o})
	c.appendAudit(id, AuditEvent{
		Epoch:  c.Epochs,
		Time:   t,
		Kind:   AuditDisrupted,
		Detail: fmt.Sprintf("link %d failed: %s", int(e), o.String()),
		Trace:  int64(c.Epochs),
	})
}

// drop retires aj at t because the failure of e left it nothing further.
func (c *Controller) drop(aj *activeJob, t float64, e netgraph.EdgeID) {
	aj.retired = true
	c.record(Record{Job: aj.orig, Delivered: aj.delivered, FinishTime: t, Disrupted: true}, "")
	c.addDisruption(aj.orig.ID, t, e, DisruptedDropped)
}

// setTopology derives the topology planning uses from the down set — the
// full graph, or the residual topology with every failed link at zero
// wavelengths — and its dead links, which key the path cache. It runs at
// New and at every link event, so neither an instance build nor a route
// check derives them again.
func (c *Controller) setTopology() {
	c.topo = c.g
	if len(c.down) > 0 {
		if r, err := c.g.WithLinksDown(c.DownLinks()...); err == nil { // LinkDown validates IDs
			c.topo = r
		}
	}
	c.dead = schedule.NewDeadLinks(c.topo)
}

// pathSet looks up j's allowed path set under the current topology, the
// lookup the next instance build runs for j.
func (c *Controller) pathSet(j job.Job) []paths.Path {
	return schedule.PathSet(c.topo, j.Src, j.Dst, c.dead, c.instanceOptions())
}

// instanceOptions is the controller's path configuration.
func (c *Controller) instanceOptions() schedule.InstanceOptions {
	return schedule.InstanceOptions{K: c.cfg.K, PathCache: c.pathCache, ColumnGen: c.cfg.ColumnGen}
}

// hasRoute reports whether src→dst is connected over healthy links: whether
// j's path set is non-empty. The first of Yen's paths, and of the colgen
// seeds, is the shortest path that avoids every dead link.
func (c *Controller) hasRoute(j job.Job) bool {
	return len(c.pathSet(j)) > 0
}

// connected answers hasRoute without pricing j's path set: a Dijkstra that
// avoids every dead link. LinkDown asks it of every active job under a
// topology the next link event may replace before a build reads it, so a
// lookup there would price sets no build uses.
func (c *Controller) connected(j job.Job) bool {
	_, ok := paths.Shortest(c.topo, j.Src, j.Dst, paths.UnitCost, c.dead.Edges(), nil)
	return ok
}

// blockedEdges returns the settlement filter: the current down set plus
// extra (either may be empty), or nil when no link is blocked.
func (c *Controller) blockedEdges(extra map[netgraph.EdgeID]bool) map[netgraph.EdgeID]bool {
	return union(c.down, extra)
}

// union returns the edges in a or b, or nil when both are empty.
func union(a, b map[netgraph.EdgeID]bool) map[netgraph.EdgeID]bool {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	u := make(map[netgraph.EdgeID]bool, len(a)+len(b))
	for e := range a {
		u[e] = true
	}
	for e := range b {
		u[e] = true
	}
	return u
}

func pathBlocked(p paths.Path, blocked map[netgraph.EdgeID]bool) bool {
	for _, e := range p.Edges {
		if blocked[e] {
			return true
		}
	}
	return false
}

// DownLinks returns the currently-failed edges in ascending ID order.
func (c *Controller) DownLinks() []netgraph.EdgeID {
	out := make([]netgraph.EdgeID, 0, len(c.down))
	for e := range c.down {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Disruptions returns every (job, link-failure) disturbance so far, in
// event order.
func (c *Controller) Disruptions() []Disruption {
	out := make([]Disruption, len(c.disruptions))
	copy(out, c.disruptions)
	return out
}

// LinkDown fails edge e at time t: bytes delivered before t are credited
// (the slice straddling t counts only paths avoiding e), unreachable jobs
// are dropped, and the rest of the period is replanned over the residual
// topology. Disrupted jobs are classified as rescheduled on time,
// rescheduled late, or dropped. An event dated before one already applied
// is refused with ErrStaleEvent.
func (c *Controller) LinkDown(e netgraph.EdgeID, t float64) error {
	if err := c.CheckLinkEvent(e, t); err != nil {
		return err
	}
	if c.down[e] {
		return nil
	}
	telLinkDown.Inc()
	c.applied(t)

	// Credit everything delivered before the failure under the old down
	// set, then the straddling slice with the failed link excluded.
	b := t
	c.settleAcross(t, map[netgraph.EdgeID]bool{e: true})
	disrupted := make(map[*activeJob]bool)
	if cm := c.commit; cm != nil {
		b = cm.settled
		// Jobs whose remaining committed flow crosses e are disrupted.
		for k, aj := range cm.fresh {
			if !aj.retired && planUsesEdge(cm.plan, k, e, t) {
				disrupted[aj] = true
			}
		}
	}

	if c.down == nil {
		c.down = make(map[netgraph.EdgeID]bool)
	}
	c.down[e] = true
	c.setTopology()

	// Drop jobs with no route left.
	for _, aj := range c.active {
		if aj.retired || c.connected(aj.orig) {
			continue
		}
		c.drop(aj, t, e)
		delete(disrupted, aj)
	}

	if c.commit != nil {
		c.replanAfterFailure(b, e, t, disrupted)
	}
	return nil
}

// LinkUp repairs edge e at time t. The running plan (built without e) stays
// in force; the restored capacity is used from the next epoch on. Bytes are
// settled through the slice straddling t under the old down set, so a
// carried-forward schedule never retroactively credits flow over a link
// that was down for part of the slice. An event dated before one already
// applied is refused with ErrStaleEvent.
func (c *Controller) LinkUp(e netgraph.EdgeID, t float64) error {
	if err := c.CheckLinkEvent(e, t); err != nil {
		return err
	}
	if !c.down[e] {
		return nil
	}
	telLinkUp.Inc()
	c.applied(t)
	c.settleAcross(t, nil)
	delete(c.down, e)
	c.setTopology()
	return nil
}

// settleAcross credits the transfers before t under the old down set, then
// the plan slice straddling t with extra blocked as well.
func (c *Controller) settleAcross(t float64, extra map[netgraph.EdgeID]bool) {
	c.settle(t, nil)
	if cm := c.commit; cm != nil {
		c.settle(straddleEnd(cm, t), extra)
	}
}

// straddleEnd returns the end of the plan slice strictly containing t, or
// t itself when t falls on a slice boundary or outside the grid.
func straddleEnd(cm *commitment, t float64) float64 {
	grid := cm.plan.Inst.Grid
	for j := 0; j < grid.Num(); j++ {
		s := grid.Start(j)
		e := s + grid.Len(j)
		if s < t-1e-9 && t < e-1e-9 {
			return e
		}
		if s >= t {
			break
		}
	}
	return t
}

// planUsesEdge reports whether job k's plan routes flow over edge e on any
// slice ending after t.
func planUsesEdge(plan *schedule.Assignment, k int, e netgraph.EdgeID, t float64) bool {
	grid := plan.Inst.Grid
	for p, path := range plan.Inst.JobPaths[k] {
		onEdge := false
		for _, eid := range path.Edges {
			if eid == e {
				onEdge = true
				break
			}
		}
		if !onEdge {
			continue
		}
		for j := 0; j < grid.Num(); j++ {
			if grid.Start(j)+grid.Len(j) <= t+1e-9 {
				continue
			}
			if plan.X[k][p][j] > 1e-9 {
				return true
			}
		}
	}
	return false
}

// replanAfterFailure re-solves the rest of the committed period [b, end)
// over the residual topology and classifies the disrupted jobs. When every
// solve fails, the old plan is kept and settlement's down-filter restricts
// it to surviving links (the carry tier of the degradation chain).
func (c *Controller) replanAfterFailure(b float64, e netgraph.EdgeID, t float64, disrupted map[*activeJob]bool) {
	cm := c.commit
	if b >= cm.end-1e-9 {
		return // period effectively over; the next epoch replans anyway
	}

	// Retire jobs whose window from b cannot hold a whole slice: they can
	// receive nothing more, replanned or not.
	live := 0
	for _, aj := range c.active {
		switch {
		case aj.retired:
		case c.fitsSlice(aj.orig.Start, aj.effectiveEnd, b):
			live++
		case disrupted[aj]:
			c.drop(aj, t, e)
			delete(disrupted, aj)
		default:
			c.expire(aj, "")
		}
	}
	if live == 0 {
		c.prevPlan, c.prevFresh = cm.plan, cm.fresh
		c.commit = nil
		return
	}

	if plan, fresh, _ := c.solveChain(b); plan != nil {
		c.commit = &commitment{
			plan: plan, fresh: fresh,
			start: b, end: cm.end, settled: b,
		}
	} else {
		// Carry tier: keep the old plan; the settlement filter excludes
		// every path over a failed link.
		c.logger.Warn("controller: replan failed, carrying schedule on residual links", "t", t, "edge", int(e))
	}

	// Classify the surviving disrupted jobs by their projected finish
	// under whatever plan is now in force.
	for _, aj := range c.active {
		if aj.retired || !disrupted[aj] {
			continue
		}
		finish, ok := c.projectedFinish(aj)
		if ok && finish <= aj.orig.End+1e-9 {
			c.addDisruption(aj.orig.ID, t, e, RescheduledOnTime)
		} else {
			c.addDisruption(aj.orig.ID, t, e, RescheduledLate)
		}
	}
}
