package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/campaign"
	"fidelity/internal/model"
	"fidelity/internal/numerics"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEndMetrics...), perLayerMetrics...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, nameRE)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s has unit %q, want %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s has better %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root lists
// exactly the workloads and metrics this program emits.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, c := range []struct {
		kind      string
		got, want []metric
	}{{"end_to_end", doc.EndToEnd, endToEndMetrics}, {"per_layer", doc.PerLayer, perLayerMetrics}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, program has %+v", c.kind, i, c.got[i], c.want[i])
			}
		}
	}
}

func TestTamperedDigestCountsAsFailure(t *testing.T) {
	w, err := model.Build("mobilenet", numerics.INT8, weightSeed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Study(context.Background(), accel.NVDLASmall(), w,
		campaign.StudyOptions{Samples: 16, Inputs: inputs, Tolerance: tolerance, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	runs := []campaignRun{newCampaignRun("mobilenet", res, nil)}
	good := digests(runs)
	if n := failedExperiments(runs, good); n != 0 {
		t.Fatalf("untampered digest: %d failed experiments, want 0", n)
	}
	tampered := []byte(good[0])
	tampered[0] ^= 1
	if n := failedExperiments(runs, []string{string(tampered)}); n != res.Experiments {
		t.Fatalf("tampered digest: %d failed experiments, want all %d", n, res.Experiments)
	}
	// A campaign that errored or came back partial fails whatever its digest.
	if n := failedExperiments([]campaignRun{{err: context.Canceled}}, nil); n != 1 {
		t.Fatalf("errored campaign: %d failed experiments, want 1", n)
	}
	partial := runs[0]
	partial.partial = true
	if n := failedExperiments([]campaignRun{partial}, good); n != res.Experiments {
		t.Fatalf("partial campaign: %d failed experiments, want %d", n, res.Experiments)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending: percentile must sort
		}
		return s
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{5, 0.5, 0, false},
	} {
		got, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("percentile(%d samples, %v): err = %v, want ok = %v", c.n, c.p, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("percentile(%d samples, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	parent := span{ID: 1, StartNS: 0, EndNS: 100}
	kids := []span{
		{Parent: 1, StartNS: 10, EndNS: 30},
		{Parent: 1, StartNS: 20, EndNS: 50},  // overlaps the first: counted once
		{Parent: 1, StartNS: 90, EndNS: 120}, // clipped at the parent's end
	}
	if got := covered(parent, kids); got != 50 {
		t.Fatalf("covered = %d, want 50", got)
	}
	tr := &tracer{spans: append([]span{parent}, kids...)}
	tr.spans[0].Layer = "campaign"
	for i := 1; i < len(tr.spans); i++ {
		tr.spans[i].ID = i + 1
		tr.spans[i].Layer = "distrib"
	}
	self := tr.selfMS()
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	if !near(self["campaign"], 50e-6) || !near(self["distrib"], 80e-6) {
		t.Fatalf("self times = %v, want campaign 50ns and distrib 80ns", self)
	}
}

func TestBadCommandLine(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "cnn-fp16", "--trace", "2"},
		{"--workload", "cnn-fp16", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed a result: %s", args, out.String())
		}
	}
}

// TestSmoke runs every workload at smoke-test size, untraced and traced,
// and checks that the last line names every metric of its kind with its
// unit and reports a correct run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real campaigns")
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl.name, trace), func(t *testing.T) {
				var out bytes.Buffer
				c := config{workload: wl.tiny(), seed: 3, seconds: 0.01, trace: trace, spans: t.TempDir()}
				r, err := measure(context.Background(), c, &out)
				if err != nil {
					t.Fatal(err)
				}
				if err := printResult(&out, r); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result not correct: %+v\n%s", res, out.String())
				}
				defs := endToEndMetrics
				if trace {
					defs = perLayerMetrics
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if r, ok := res.Metrics[d.Name]; !ok || r.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, r, ok, d.Unit)
					}
				}
			})
		}
	}
}
