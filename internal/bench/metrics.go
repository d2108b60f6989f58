package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one reported figure: its name, unit, and which direction is
// better. The two lists mirror BENCHMARK.json; bench_test.go keeps them in
// step.
type metric struct {
	Name, Unit, Better string
}

// endToEndMetrics are reported by every untraced run (--trace 0).
var endToEndMetrics = []metric{
	{"exps_per_s", "1/s", "higher"},
	{"campaign_s", "s", "lower"},
	{"experiments", "count", "lower"},
	{"setup_s", "s", "lower"},
	{"allocs_per_exp", "count", "lower"},
	{"alloc_kb_per_exp", "KiB", "lower"},
	{"max_rss_mb", "MiB", "lower"},
	{"exact_frac", "frac", "higher"},
}

// perLayerMetrics are reported by every traced run (--trace 1). Layer
// prefixes are the repository's package names.
var perLayerMetrics = []metric{
	{"model.build_ms", "ms", "lower"},
	{"faultmodel.derive_ms", "ms", "lower"},
	{"harden.profile_ms", "ms", "lower"},
	{"harden.clamp_overhead_frac", "frac", "lower"},
	{"harden.saturated_per_clamp", "count", "lower"},
	{"numerics.roundhalf_ns", "ns", "lower"},
	{"numerics.round_int8_ns", "ns", "lower"},
	{"nn.forward_ms", "ms", "lower"},
	{"inject.golden_trace_ms", "ms", "lower"},
	{"inject.run_p50_us", "us", "lower"},
	{"inject.run_p99_us", "us", "lower"},
	{"inject.run_samples", "count", "higher"},
	{"inject.top_site_share", "frac", "lower"},
	{"inject.skipped_per_exp", "count", "higher"},
	{"inject.recomputed_per_exp", "count", "lower"},
	{"inject.region_swept_frac", "frac", "higher"},
	{"inject.converged_frac", "frac", "higher"},
	{"inject.macs_avoided_per_exp", "count", "higher"},
	{"inject.allocs_per_run", "count", "lower"},
	{"inject.masked_frac", "frac", "higher"},
	{"campaign.trace_s", "s", "lower"},
	{"campaign.inject_s", "s", "lower"},
	{"campaign.fit_s", "s", "lower"},
	{"campaign.batch_group_size", "count", "higher"},
	{"campaign.tiles_per_exp", "count", "lower"},
	{"campaign.rounds", "count", "lower"},
	{"campaign.shard_s_p50", "s", "lower"},
	{"campaign.shard_s_max", "s", "lower"},
	{"campaign.parallel_eff", "frac", "higher"},
	{"fit.assemble_ms", "ms", "lower"},
	{"distrib.lease_p50_ms", "ms", "lower"},
	{"distrib.lease_p99_ms", "ms", "lower"},
	{"distrib.report_p50_ms", "ms", "lower"},
	{"distrib.report_p99_ms", "ms", "lower"},
	{"distrib.lease_samples", "count", "higher"},
	{"distrib.requests_per_shard", "count", "lower"},
	{"distrib.report_kb_per_exp", "KiB", "lower"},
	{"distrib.empty_lease_frac", "frac", "lower"},
	{"distrib.retry_frac", "frac", "lower"},
	{"model.self_ms", "ms", "lower"},
	{"faultmodel.self_ms", "ms", "lower"},
	{"harden.self_ms", "ms", "lower"},
	{"numerics.self_ms", "ms", "lower"},
	{"nn.self_ms", "ms", "lower"},
	{"inject.self_ms", "ms", "lower"},
	{"campaign.self_ms", "ms", "lower"},
	{"fit.self_ms", "ms", "lower"},
	{"distrib.self_ms", "ms", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

// reading is one metric as printed: its value and unit.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

// readings pairs every metric in defs with its measured value. A metric
// without a value, or with a non-finite one, is an error: the output must
// name every metric of the run's kind.
func readings(defs []metric, values map[string]float64) (map[string]reading, error) {
	out := make(map[string]reading, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("bench: metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bench: metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = reading{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// printTable writes one "name value unit" line per metric, in defs order.
func printTable(w io.Writer, defs []metric, m map[string]reading) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-30s %16.6g %s\n", d.Name, m[d.Name].Value, d.Unit)
	}
}

// printResult writes r as one JSON line. encoding/json orders the metric map
// by key, so the line is deterministic for given values.
func printResult(w io.Writer, r result) error {
	blob, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples. It
// refuses when fewer than minBeyond samples lie beyond that rank, so a p99
// needs at least 1000 samples and a p50 at least 20.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("bench: percentile %v outside (0, 1)", p)
	}
	rank := int(math.Ceil(p * float64(n)))
	if n-rank < minBeyond {
		return 0, fmt.Errorf("bench: p%g of %d samples has %d beyond it, need %d", p*100, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle of samples (the mean of the two middle values
// for an even count). It is the central figure of a small set of repeated
// measurements, where no tail percentile would be meaningful.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (an empty denominator means nothing
// happened, e.g. no clamp ever applied).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
