// Command benchjson converts `go test -bench` output on stdin into a
// benchstat-compatible JSON artifact: per-benchmark ns/op and allocs/op, plus
// paired optimized-vs-baseline speedups per workload and their geomean. These
// benchmark families pair up (several may appear in one stream):
//
//	BenchmarkInjectionReplay/<workload>/{replay,full}      -> BENCH_inject.json
//	BenchmarkAdaptive/<workload>/{adaptive,fixed}          -> BENCH_adaptive.json
//	BenchmarkHarden/<workload>/{hardened,baseline}         -> BENCH_harden.json
//
// Usage:
//
//	go test -run '^$' -bench '^BenchmarkInjectionReplay$' -benchmem . | benchjson -o BENCH_inject.json
//	go test -run '^$' -bench '^BenchmarkAdaptive$' . | benchjson -o BENCH_adaptive.json
//
// The companion command cmd/benchjson/benchgate compares two such artifacts
// and fails when the geomean regresses, enforcing the benchmark trajectory
// in CI.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one measured `go test -bench` line.
type Benchmark struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	BPerOp     int64   `json:"b_per_op,omitempty"`
	AllocsOp   int64   `json:"allocs_per_op,omitempty"`
}

// Speedup is baseline time over optimized time for one paired workload. For
// BenchmarkInjectionReplay the optimized mode is /replay and the baseline is
// /full.
type Speedup struct {
	Workload    string  `json:"workload"`
	OptimizedNs float64 `json:"optimized_ns_per_op"`
	BaselineNs  float64 `json:"baseline_ns_per_op"`
	Speedup     float64 `json:"speedup"`
}

// Report is the schema of the BENCH_*.json artifacts.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Speedups covers workloads that measured both modes of a paired family.
	Speedups []Speedup `json:"speedups,omitempty"`
	// GeomeanSpeedup is the geometric mean over the paired workloads
	// (masked-at-layer is a fast-path microbenchmark and reported
	// separately, not averaged in).
	GeomeanSpeedup float64 `json:"geomean_speedup,omitempty"`
	// MaskedSpeedup is the masked-at-layer fast-path speedup.
	MaskedSpeedup float64 `json:"masked_at_layer_speedup,omitempty"`
}

// pairSpecs lists the benchmark families whose sub-benchmarks pair into
// speedups: speedup = slow mode ns/op over fast mode ns/op.
var pairSpecs = []struct {
	prefix     string
	fast, slow string
}{
	{"BenchmarkInjectionReplay/", "replay", "full"},
	// BenchmarkAdaptive reports experiments-per-campaign as its ns/op value,
	// so this pair's "speedup" is the fixed/adaptive experiment ratio at
	// equal Wilson-CI resolution.
	{"BenchmarkAdaptive/", "adaptive", "fixed"},
	// BenchmarkHarden reports the global-control-protected micro-FIT as its
	// ns/op value, so this pair's "speedup" is the baseline/hardened FIT
	// ratio — the reduction range-restriction clamps buy.
	{"BenchmarkHarden/", "hardened", "baseline"},
}

var benchLine = regexp.MustCompile(
	`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	rep := parse(bufio.NewScanner(os.Stdin))

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s", len(rep.Benchmarks), *out)
	if rep.GeomeanSpeedup > 0 {
		fmt.Fprintf(os.Stderr, " (geomean speedup %.2fx", rep.GeomeanSpeedup)
		if rep.MaskedSpeedup > 0 {
			fmt.Fprintf(os.Stderr, ", masked-at-layer %.2fx", rep.MaskedSpeedup)
		}
		fmt.Fprint(os.Stderr, ")")
	}
	fmt.Fprintln(os.Stderr)
}

func parse(sc *bufio.Scanner) Report {
	var rep Report
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b := Benchmark{Name: m[1]}
		b.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		b.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			b.BPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			b.AllocsOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	rep.Speedups, rep.GeomeanSpeedup, rep.MaskedSpeedup = speedups(rep.Benchmarks)
	return rep
}

// speedups pairs the fast/slow sub-benchmarks of every family in pairSpecs.
// Sub-benchmark names carry a -<GOMAXPROCS> suffix that must be stripped.
func speedups(benchmarks []Benchmark) ([]Speedup, float64, float64) {
	type pair struct{ fast, slow float64 }
	pairs := map[string]*pair{}
	var order []string
	for _, b := range benchmarks {
		for _, spec := range pairSpecs {
			rest, ok := strings.CutPrefix(b.Name, spec.prefix)
			if !ok {
				continue
			}
			if i := strings.LastIndex(rest, "-"); i > strings.LastIndex(rest, "/") {
				rest = rest[:i] // trim the -<GOMAXPROCS> suffix
			}
			workload, mode, ok := strings.Cut(rest, "/")
			if !ok {
				continue
			}
			p := pairs[workload]
			if p == nil {
				p = &pair{}
				pairs[workload] = p
				order = append(order, workload)
			}
			switch mode {
			case spec.fast:
				p.fast = b.NsPerOp
			case spec.slow:
				p.slow = b.NsPerOp
			}
		}
	}
	var out []Speedup
	var masked float64
	logSum, n := 0.0, 0
	for _, w := range order {
		p := pairs[w]
		if p.fast <= 0 || p.slow <= 0 {
			continue
		}
		s := Speedup{Workload: w, OptimizedNs: p.fast, BaselineNs: p.slow, Speedup: p.slow / p.fast}
		out = append(out, s)
		if w == "masked-at-layer" {
			masked = s.Speedup
			continue
		}
		logSum += math.Log(s.Speedup)
		n++
	}
	var geo float64
	if n > 0 {
		geo = math.Exp(logSum / float64(n))
	}
	return out, geo, masked
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
