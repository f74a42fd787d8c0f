package experiments

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"wavesched/internal/lp"
)

func TestRunSeedsOrderAndValues(t *testing.T) {
	seeds := []int64{7, 3, 11, 5, 2, 9, 1, 8}
	got, err := runSeeds(seeds, func(s int64) (int64, error) {
		return s * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seeds {
		if got[i] != s*10 {
			t.Errorf("result %d = %d, want %d (seed order broken)", i, got[i], s*10)
		}
	}
}

func TestRunSeedsEarliestErrorWins(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	_, err := runSeeds(seeds, func(s int64) (int, error) {
		if s >= 3 {
			return 0, fmt.Errorf("seed %d failed", s)
		}
		return int(s), nil
	})
	if err == nil || err.Error() != "seed 3 failed" {
		t.Fatalf("err = %v, want the earliest failing seed's error", err)
	}
}

func TestRunSeedsBoundsWorkers(t *testing.T) {
	limit := int64(runtime.NumCPU())
	var inFlight, peak int64
	seeds := make([]int64, 64)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	_, err := runSeeds(seeds, func(s int64) (struct{}, error) {
		n := atomic.AddInt64(&inFlight, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
				break
			}
		}
		atomic.AddInt64(&inFlight, -1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := atomic.LoadInt64(&peak); p > limit {
		t.Errorf("observed %d concurrent workers, cap is %d", p, limit)
	}
}

func TestRunSeedsEmptyAndSingle(t *testing.T) {
	out, err := runSeeds(nil, func(s int64) (int, error) { return 1, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty seeds: out=%v err=%v", out, err)
	}
	out, err = runSeeds([]int64{4}, func(s int64) (int, error) { return int(s), nil })
	if err != nil || len(out) != 1 || out[0] != 4 {
		t.Fatalf("single seed: out=%v err=%v", out, err)
	}
}

// TestFiguresDeterministicAcrossRuns re-runs multi-seed figure sweeps and
// requires bit-identical rows: the parallel fan-out must merge in seed
// order.
func TestFiguresDeterministicAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration in -short mode")
	}
	sc := Scale{
		Nodes: 14, LinkPairs: 28, Jobs: 6, Slices: 4, K: 3,
		SliceSeconds: 10, LinkGbps: 20,
		Seeds:  []int64{1, 2, 3, 4},
		Solver: lp.Options{Pricing: lp.PartialDantzig},
	}

	f1a, err := Fig1(sc, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	f1b, err := Fig1(sc, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := fmt.Sprintf("%b %b %b", f1a[0].LPDRatio, f1a[0].LPDARRatio, f1a[0].ZStar),
		fmt.Sprintf("%b %b %b", f1b[0].LPDRatio, f1b[0].LPDARRatio, f1b[0].ZStar); a != b {
		t.Errorf("Fig1 rows differ across runs:\n%s\n%s", a, b)
	}

	f4a, err := Fig4(sc, []int{4}, RETConfig{BMax: 3, OverloadGBx: 3})
	if err != nil {
		t.Fatal(err)
	}
	f4b, err := Fig4(sc, []int{4}, RETConfig{BMax: 3, OverloadGBx: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := fmt.Sprintf("%b %b %b %b", f4a[0].BHat, f4a[0].B, f4a[0].LPAvgEnd, f4a[0].LPDARAvgEnd),
		fmt.Sprintf("%b %b %b %b", f4b[0].BHat, f4b[0].B, f4b[0].LPAvgEnd, f4b[0].LPDARAvgEnd); a != b {
		t.Errorf("Fig4 rows differ across runs:\n%s\n%s", a, b)
	}
}
