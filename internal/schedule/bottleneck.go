package schedule

import (
	"fmt"
	"sort"

	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
)

// Bottleneck is one congested (link, slice) with its shadow price: the
// marginal increase of the maximum concurrent throughput Z* per extra
// wavelength on that link during that slice, together with the range of
// wavelength counts over which that price holds.
type Bottleneck struct {
	Edge        netgraph.EdgeID
	Slice       int
	ShadowPrice float64 // ∂Z*/∂C_e(j) ≥ 0
	// CapRange is the wavelength-count interval over which the shadow
	// price stays valid (from RHS ranging on the capacity row).
	CapRange lp.Range
}

// BottleneckAnalysis solves the stage-1 MCF LP with sensitivity analysis
// and returns the capacity constraints with positive shadow prices, most
// valuable first. A network operator reads this as "adding a wavelength
// here raises the whole network's concurrent throughput by this much" —
// planning information the optimization framework yields for free.
func BottleneckAnalysis(inst *Instance, opts lp.Options) ([]Bottleneck, *Stage1Result, error) {
	// Every capacity row: the report is a shadow price per (link, slice).
	m, z, xvars, capRows, err := buildStage1Model("stage1-mcf-sens", inst, nil)
	if err != nil {
		return nil, nil, err
	}

	sol, sens, err := m.SolveWithSensitivity(opts)
	if err != nil {
		return nil, nil, fmt.Errorf("schedule: bottleneck analysis: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, nil, fmt.Errorf("schedule: bottleneck analysis: solver returned %v", sol.Status)
	}
	s1 := &Stage1Result{
		ZStar: sol.Value(z),
		Frac:  extractAssignment(inst, xvars, sol),
		Iters: sol.Iters,
	}

	var out []Bottleneck
	for kk, row := range capRows {
		// Min-form dual of a ≤ row is ≤ 0 for Maximize models; the shadow
		// price of capacity on the user objective (Z, maximized) is its
		// negation.
		price := -sol.Duals[row]
		if price <= 1e-9 {
			continue
		}
		out = append(out, Bottleneck{
			Edge:        kk.e,
			Slice:       kk.j,
			ShadowPrice: price,
			CapRange:    sens.RHS[row],
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].ShadowPrice != out[b].ShadowPrice {
			return out[a].ShadowPrice > out[b].ShadowPrice
		}
		if out[a].Edge != out[b].Edge {
			return out[a].Edge < out[b].Edge
		}
		return out[a].Slice < out[b].Slice
	})
	return out, s1, nil
}
