package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"wavesched/internal/netgraph"
)

// LinkEvent is one link state change in a failure trace.
type LinkEvent struct {
	Time float64         `json:"time"`
	Edge netgraph.EdgeID `json:"edge"`
	Up   bool            `json:"up"`
}

// FailureConfig parameterizes the synthetic failure process: every edge
// fails and repairs independently as an alternating renewal process with
// exponential up-times (mean MTBF) and down-times (mean MTTR).
type FailureConfig struct {
	MTBF    float64 // mean time between failures (up-time), > 0 and finite
	MTTR    float64 // mean time to repair (down-time), > 0 and finite
	Seed    int64   // RNG seed; equal seeds give equal traces
	MaxTime float64 // generate events in [0, MaxTime), > 0 and finite
}

// GenerateFailures draws a deterministic failure/repair trace over the
// graph's edges, sorted by time (stable in edge order for ties). Every
// down event before MaxTime is paired with its repair when the repair
// also falls before MaxTime; a trailing failure may be left unrepaired.
func GenerateFailures(g *netgraph.Graph, cfg FailureConfig) ([]LinkEvent, error) {
	// An infinite MaxTime would never end the per-edge loop, and a NaN
	// compares false everywhere: refuse both, for every parameter.
	for _, p := range []struct {
		name string
		v    float64
	}{{"MTBF", cfg.MTBF}, {"MTTR", cfg.MTTR}, {"MaxTime", cfg.MaxTime}} {
		if !(p.v > 0) || math.IsInf(p.v, 1) {
			return nil, fmt.Errorf("sim: %s must be positive and finite, got %g", p.name, p.v)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var evs []LinkEvent
	for e := 0; e < g.NumEdges(); e++ {
		t := rng.ExpFloat64() * cfg.MTBF
		for t < cfg.MaxTime {
			evs = append(evs, LinkEvent{Time: t, Edge: netgraph.EdgeID(e), Up: false})
			up := t + rng.ExpFloat64()*cfg.MTTR
			if up >= cfg.MaxTime {
				break
			}
			evs = append(evs, LinkEvent{Time: up, Edge: netgraph.EdgeID(e), Up: true})
			t = up + rng.ExpFloat64()*cfg.MTBF
		}
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].Time < evs[b].Time })
	return evs, nil
}

// WriteLinkTrace writes the trace as a JSON array, one event per line.
func WriteLinkTrace(w io.Writer, evs []LinkEvent) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(evs)
}

// ReadLinkTrace parses a JSON failure trace, validates it, and returns
// the events sorted by time (stable).
func ReadLinkTrace(r io.Reader) ([]LinkEvent, error) {
	var evs []LinkEvent
	if err := json.NewDecoder(r).Decode(&evs); err != nil {
		return nil, fmt.Errorf("sim: parse link trace: %w", err)
	}
	for i, ev := range evs {
		if ev.Time < 0 {
			return nil, fmt.Errorf("sim: link trace event %d has negative time %g", i, ev.Time)
		}
		if ev.Edge < 0 {
			return nil, fmt.Errorf("sim: link trace event %d has negative edge %d", i, ev.Edge)
		}
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].Time < evs[b].Time })
	return evs, nil
}
