// Command benchgate compares two benchjson artifacts and fails when the
// fresh run's geomean speedup has regressed beyond a tolerance against the
// committed baseline. CI's bench-trajectory job runs it for every
// remeasured BENCH_*.json artifact, so a change that erodes the optimization
// stack's advantage fails the build instead of silently shipping.
//
// Usage:
//
//	benchgate -old BENCH_inject.json -new BENCH_inject.new.json [-tolerance 0.10]
//
// The gate passes when new geomean >= old geomean * (1 - tolerance). Only the
// geomean is gated: per-workload ns/op moves with machine load, but the
// geomean of paired same-process ratios is stable enough to enforce.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// report mirrors the benchjson fields the gate reads.
type report struct {
	GeomeanSpeedup float64 `json:"geomean_speedup"`
	Speedups       []struct {
		Workload string  `json:"workload"`
		Speedup  float64 `json:"speedup"`
	} `json:"speedups"`
}

func main() {
	oldPath := flag.String("old", "", "committed baseline artifact")
	newPath := flag.String("new", "", "freshly measured artifact")
	tol := flag.Float64("tolerance", 0.10, "allowed fractional geomean regression")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -old and -new are required")
		flag.Usage()
		os.Exit(2)
	}

	oldRep, err := load(*oldPath)
	if err != nil {
		fatal(err)
	}
	newRep, err := load(*newPath)
	if err != nil {
		fatal(err)
	}
	if oldRep.GeomeanSpeedup <= 0 {
		fatal(fmt.Errorf("%s has no geomean_speedup; regenerate the baseline with benchjson", *oldPath))
	}
	if newRep.GeomeanSpeedup <= 0 {
		fatal(fmt.Errorf("%s has no geomean_speedup; the paired benchmarks did not run", *newPath))
	}

	for _, s := range newRep.Speedups {
		fmt.Printf("benchgate: %-18s %6.2fx\n", s.Workload, s.Speedup)
	}
	floor := oldRep.GeomeanSpeedup * (1 - *tol)
	fmt.Printf("benchgate: geomean %.2fx (baseline %.2fx, floor %.2fx)\n",
		newRep.GeomeanSpeedup, oldRep.GeomeanSpeedup, floor)
	if newRep.GeomeanSpeedup < floor {
		fmt.Fprintf(os.Stderr,
			"benchgate: FAIL — geomean speedup %.2fx regressed more than %.0f%% below the committed %.2fx\n",
			newRep.GeomeanSpeedup, *tol*100, oldRep.GeomeanSpeedup)
		os.Exit(1)
	}
	fmt.Println("benchgate: ok")
}

func load(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
