package schedule

import (
	"wavesched/internal/lp"
	"wavesched/internal/netgraph"
)

// solverOpts returns simplex options suitable for the small test
// instances: tight iteration budget so a hang fails fast.
func solverOpts() lp.Options {
	return lp.Options{MaxIter: 200000}
}

// maskLinksDown zeroes C_e(j) for every listed edge over the inclusive
// slice range [firstSlice, lastSlice]: the per-slice capacity mask of a
// link outage known to span those slices.
func maskLinksDown(in *Instance, down []netgraph.EdgeID, firstSlice, lastSlice int) error {
	for _, e := range down {
		for j := firstSlice; j <= lastSlice; j++ {
			if err := in.SetCapacity(e, j, 0); err != nil {
				return err
			}
		}
	}
	return nil
}
