// Command benchpairs runs the daemon-epoch benchmark (./bench) of two
// commits in alternating pairs and prints, per end-to-end metric, what a
// performance claim has to show: both medians, both inter-quartile ranges
// and how many pairs the change won.
//
//	go run ./cmd/benchpairs -base <rev> -workload steady-ret [-n 10] [-seed 1]
//
// The base side is <rev> checked out into a temporary git worktree, the
// other side the working tree the command is run from (the repository
// root). Each side's ./bench is built once and run from its own checkout
// with -traced=false; within a pair the side that runs first alternates.
// A metric reads "gain" when the change is ahead in at least nine tenths of
// the pairs (ties count for neither side) and the medians are further apart
// than the base's own inter-quartile range, "worse" for the mirror image,
// and "-" otherwise. Every run's value is printed under the summary row.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
)

// report is the part of a `bench -out` file this command reads.
type report struct {
	Results []struct {
		Workload string `json:"workload"`
		Correct  bool   `json:"correct"`
		Failed   int    `json:"failed"`
		EndToEnd map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"end_to_end"`
	} `json:"results"`
}

// contract is the part of BENCHMARK.json this command reads: the metrics'
// order and which direction is better.
type contract struct {
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

func main() {
	base := flag.String("base", "", "revision to compare the working tree against (required)")
	workload := flag.String("workload", "", "run one workload (default: all five, ~2 min per run)")
	n := flag.Int("n", 10, "number of pairs")
	seed := flag.Int64("seed", 1, "benchmark seed; 2 is the held-out one")
	flag.Parse()
	if *base == "" || *n < 1 {
		flag.Usage()
		os.Exit(2)
	}
	// An interrupt cancels the run in flight, and run's clean-up follows.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, *base, *workload, *n, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, base, workload string, n int, seed int64) error {
	var bm contract
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	head, err := os.Getwd()
	if err != nil {
		return err
	}

	tmp, err := os.MkdirTemp("", "benchpairs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	baseDir := filepath.Join(tmp, "base")
	if out, err := exec.CommandContext(ctx, "git", "worktree", "add", "--detach", baseDir, base).CombinedOutput(); err != nil {
		return fmt.Errorf("git worktree add %s: %v\n%s", base, err, out)
	}
	defer func() {
		if out, err := exec.Command("git", "worktree", "remove", "--force", baseDir).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "benchpairs: git worktree remove %s: %v\n%s(run `git worktree prune`)\n", baseDir, err, out)
		}
	}()
	sides := []struct{ name, dir, bin string }{
		{"base", baseDir, filepath.Join(tmp, "bench-base")},
		{"head", head, filepath.Join(tmp, "bench-head")},
	}
	for _, s := range sides {
		cmd := exec.CommandContext(ctx, "go", "build", "-buildvcs=false", "-o", s.bin, "./bench")
		cmd.Dir = s.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("building ./bench at %s: %v\n%s", s.name, err, out)
		}
	}

	// values[workload][metric][side] lists one value per pair.
	values := map[string]map[string]*[2][]float64{}
	var workloads []string
	for pair := 0; pair < n; pair++ {
		order := []int{pair % 2, 1 - pair%2}
		for _, side := range order {
			s := sides[side]
			outFile := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", s.name, pair))
			args := []string{"-seed", fmt.Sprint(seed), "-traced=false",
				"-workdir", filepath.Join(tmp, "work-"+s.name), "-out", outFile}
			if workload != "" {
				args = append(args, "-workload", workload)
			}
			cmd := exec.CommandContext(ctx, s.bin, args...)
			cmd.Dir = s.dir
			if out, err := cmd.CombinedOutput(); err != nil {
				return fmt.Errorf("pair %d, %s: %v\n%s", pair+1, s.name, err, out)
			}
			var rep report
			b, err := os.ReadFile(outFile)
			if err != nil {
				return err
			}
			if err := json.Unmarshal(b, &rep); err != nil {
				return fmt.Errorf("%s: %w", outFile, err)
			}
			for _, res := range rep.Results {
				if !res.Correct || res.Failed > 0 {
					return fmt.Errorf("pair %d, %s: %s ran incorrectly (%d operations failed)", pair+1, s.name, res.Workload, res.Failed)
				}
				if values[res.Workload] == nil {
					values[res.Workload] = map[string]*[2][]float64{}
					workloads = append(workloads, res.Workload)
				}
				for name, m := range res.EndToEnd {
					if values[res.Workload][name] == nil {
						values[res.Workload][name] = new([2][]float64)
					}
					values[res.Workload][name][side] = append(values[res.Workload][name][side], m.Value)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "pair %d/%d done\n", pair+1, n)
	}

	fmt.Printf("base %s vs working tree, seed %d, %d alternating pairs, -traced=false\n", base, seed, n)
	for _, w := range workloads {
		fmt.Printf("\n%s\n", w)
		fmt.Printf("  %-18s %-6s %12s %12s %12s %12s %8s %6s  %s\n",
			"metric", "unit", "base median", "base IQR", "head median", "head IQR", "change", "wins", "verdict")
		for _, m := range bm.EndToEnd {
			v := values[w][m.Name]
			if v == nil {
				continue
			}
			b, h := v[0], v[1]
			wins, losses := 0, 0
			for i := range b {
				switch {
				case h[i] == b[i]:
				case (h[i] < b[i]) == (m.Better == "lower"):
					wins++
				default:
					losses++
				}
			}
			bq1, bmed, bq3 := quartiles(b)
			hq1, hmed, hq3 := quartiles(h)
			verdict := "-"
			apart := math.Abs(hmed-bmed) > bq3-bq1
			switch {
			case apart && 10*wins >= 9*len(b):
				verdict = "gain"
			case apart && 10*losses >= 9*len(b):
				verdict = "worse"
			}
			change := "="
			if bmed != 0 && hmed != bmed {
				change = fmt.Sprintf("%+.1f%%", 100*(hmed-bmed)/bmed)
			}
			fmt.Printf("  %-18s %-6s %12.6g %12.3g %12.6g %12.3g %8s %3d/%-2d  %s\n",
				m.Name, m.Unit, bmed, bq3-bq1, hmed, hq3-hq1, change, wins, len(b), verdict)
			fmt.Printf("    base: %s\n    head: %s\n", list(b), list(h))
		}
	}
	return nil
}

// quartiles returns the lower quartile, the median and the upper quartile of
// v, interpolating linearly between order statistics.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		lo := int(math.Floor(x))
		hi := int(math.Ceil(x))
		return s[lo] + (x-float64(lo))*(s[hi]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func list(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.6g", x)
	}
	return strings.Join(parts, " ")
}
