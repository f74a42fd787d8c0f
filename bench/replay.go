package main

import (
	"sync"
	"time"

	"wavesched/internal/admission"
	"wavesched/internal/controller"
	"wavesched/internal/job"
	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
	"wavesched/internal/paths"
	"wavesched/internal/schedule"
	"wavesched/internal/store"
	"wavesched/internal/timeslice"
)

// layerTimes is what the cold layer replay measured, summed over the
// sampled epochs. Every number is a harness-side stopwatch around one
// call into a layer's exported surface, on an instance rebuilt from
// /v1/jobs — no carried bases, no path cache, no plan cache — so the gap
// to the daemon's own epoch time is what warm carry and caches save.
type layerTimes struct {
	samples int

	kshortestS     float64
	kshortestCalls int
	buildS         float64
	decomposeS     float64
	stage1S        float64
	stage2S        float64
	integerizeS    float64
	colgenS        float64
	retBuildS      float64
	retSearchS     float64
	retExtractS    float64
}

// replayJobs reconstructs the job list an epoch planned: the jobs active
// after its tick, each with its residual demand, its window clipped to
// the planning instant, and the deadline that was in force going in (the
// pre-tick effective end — RET extends it during the tick).
func replayJobs(pre, post []jobStatus, now float64) []job.Job {
	endBefore := make(map[int]float64, len(pre))
	for _, j := range pre {
		endBefore[j.JobID] = j.EffectiveEnd
	}
	var out []job.Job
	for _, j := range post {
		if j.State != string(controller.JobActive) {
			continue
		}
		start := j.Start
		if start < now {
			start = now
		}
		end, ok := endBefore[j.JobID]
		if !ok {
			end = j.End
		}
		out = append(out, job.Job{
			ID: job.ID(j.JobID), Arrival: start,
			Src: netgraph.NodeID(j.Src), Dst: netgraph.NodeID(j.Dst),
			Size: j.Remaining, Start: start, End: end,
		})
	}
	return out
}

// replayLayers re-solves the sampled epochs cold, layer by layer.
func replayLayers(p *pass) (layerTimes, []string) {
	var lt layerTimes
	var errs []string
	s := p.opts.spec
	solver := lp.Options{Pricing: lp.PartialDantzig}
	fail := func(err error) bool {
		if err != nil {
			errs = append(errs, "layer replay: "+err.Error())
		}
		return err != nil
	}
	stopwatch := func(acc *float64, f func()) {
		t0 := time.Now()
		f()
		*acc += time.Since(t0).Seconds()
	}
	for _, ep := range p.epochs {
		if ep.post == nil {
			continue
		}
		now := float64(ep.epoch) * tau
		jobs := replayJobs(ep.pre, ep.post, now)
		if len(jobs) == 0 {
			continue
		}
		lt.samples++
		g := p.g
		var avoid map[netgraph.EdgeID]bool
		if len(ep.down) > 0 {
			ids := make([]netgraph.EdgeID, len(ep.down))
			avoid = make(map[netgraph.EdgeID]bool, len(ep.down))
			for i, e := range ep.down {
				ids[i] = netgraph.EdgeID(e)
				avoid[ids[i]] = true
			}
			var err error
			if g, err = p.g.WithLinksDown(ids...); fail(err) {
				continue
			}
		}

		pairs := make(map[[2]netgraph.NodeID]bool)
		for _, j := range jobs {
			pairs[[2]netgraph.NodeID{j.Src, j.Dst}] = true
		}
		stopwatch(&lt.kshortestS, func() {
			for pr := range pairs {
				paths.KShortestAvoiding(g, pr[0], pr[1], kPaths, paths.UnitCost, avoid)
			}
		})
		lt.kshortestCalls += len(pairs)

		iopts := schedule.InstanceOptions{K: kPaths, ColumnGen: s.ColumnGen}
		if s.Policy == controller.PolicyRET {
			// BuildRETInstanceOpts grids from time 0; shift the epoch there.
			shifted := make([]job.Job, len(jobs))
			for i, j := range jobs {
				j.Arrival, j.Start, j.End = j.Arrival-now, j.Start-now, j.End-now
				shifted[i] = j
			}
			var inst *schedule.Instance
			var err error
			stopwatch(&lt.retBuildS, func() {
				inst, err = schedule.BuildRETInstanceOpts(g, shifted, sliceLen, kPaths, bMax, iopts)
			})
			if fail(err) {
				continue
			}
			res, err := schedule.SolveRET(inst, schedule.RETConfig{
				BMax: bMax, Solver: solver, WarmStart: true, Certificates: true,
			})
			if fail(err) {
				continue
			}
			lt.retSearchS += res.SearchTime.Seconds()
			lt.retExtractS += res.SolveTime.Seconds()
			continue
		}

		n := timeslice.CoverUntil(now, sliceLen, job.MaxEnd(jobs))
		grid, err := timeslice.Uniform(now, sliceLen, n)
		if fail(err) {
			continue
		}
		var inst *schedule.Instance
		stopwatch(&lt.buildS, func() { inst, err = schedule.NewInstanceOpts(g, grid, jobs, iopts) })
		if fail(err) {
			continue
		}
		if s.ColumnGen {
			stopwatch(&lt.colgenS, func() {
				_, err = schedule.GeneratePaths(inst, schedule.ColGenConfig{Solver: solver, Alpha: alpha})
			})
			if fail(err) {
				continue
			}
		}
		var comps []*schedule.Component
		stopwatch(&lt.decomposeS, func() { comps = schedule.Decompose(inst, nil) })
		// Stage 1 per component, serially: Z* is the tightest block's.
		s1 := &schedule.Stage1Result{}
		stopwatch(&lt.stage1S, func() {
			for i, c := range comps {
				var r *schedule.Stage1Result
				if r, err = schedule.SolveStage1(c.Inst, solver); err != nil {
					return
				}
				if i == 0 || r.ZStar < s1.ZStar {
					s1.ZStar = r.ZStar
				}
			}
		})
		if fail(err) {
			continue
		}
		res, err := schedule.MaxThroughputWithZ(inst, s1, schedule.Config{
			Alpha: alpha, AlphaGrowth: 0.1, Solver: solver,
		})
		if fail(err) {
			continue
		}
		lt.stage2S += res.Stage2Time.Seconds()
		lt.integerizeS += (res.TruncateTime + res.AdjustTime).Seconds()
	}
	return lt, errs
}

// queueThroughput times the admission intake queue alone: two producers
// on Queue.Enqueue against one consumer on Drain, in operations per
// second.
func queueThroughput() float64 {
	const perProducer = 50000
	q := admission.NewQueue(0)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < stormClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Enqueue(&admission.Submission{})
			}
		}()
	}
	done := make(chan struct{})
	drained := 0
	go func() {
		defer close(done)
		for drained < stormClients*perProducer {
			select {
			case <-q.Wake():
			case <-time.After(time.Millisecond):
			}
			drained += len(q.Drain())
		}
	}()
	wg.Wait()
	<-done
	return float64(stormClients*perProducer) / time.Since(t0).Seconds()
}

// timeStoreOpen times store.Open alone — reading and decoding the
// snapshot and WAL — on the closed run's log directory.
func timeStoreOpen(walDir string) float64 {
	t0 := time.Now()
	l, _, err := store.Open(walDir, 0)
	dt := time.Since(t0).Seconds()
	if err != nil {
		return 0
	}
	l.Close()
	return dt
}
