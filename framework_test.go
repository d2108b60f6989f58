package fidelity

import (
	"context"
	"strings"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/baseline"
	"fidelity/internal/campaign"
	"fidelity/internal/numerics"
)

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := accel.NVDLASmall()
	cfg.AtomicK = 0
	if _, err := New(cfg); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestFrameworkAnalyze(t *testing.T) {
	fw, err := New(accel.NVDLASmall())
	if err != nil {
		t.Fatal(err)
	}
	res, err := fw.Analyze(context.Background(), "mobilenet", numerics.FP16, campaign.StudyOptions{
		Samples: 14, Inputs: 2, Tolerance: 0.1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FIT.Total <= 0 {
		t.Error("FIT must be positive")
	}
	if _, err := fw.Analyze(context.Background(), "vgg", numerics.FP16, campaign.StudyOptions{Samples: 1, Inputs: 1}); err == nil {
		t.Error("unknown network should fail")
	}
}

func TestFrameworkValidateSmall(t *testing.T) {
	fw, err := New(accel.NVDLASmall())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fw.Validate(25, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DatapathExact != rep.DatapathChecked {
		t.Errorf("datapath matches %d/%d: %v", rep.DatapathExact, rep.DatapathChecked, rep.Mismatches)
	}
	s := ValidationTable(rep).String()
	if !strings.Contains(s, "RTL fault injections") {
		t.Error("validation table malformed")
	}
}

func TestFrameworkBaselineAndSpeedup(t *testing.T) {
	fw, err := New(accel.NVDLASmall())
	if err != nil {
		t.Fatal(err)
	}
	nb, err := fw.NaiveBaseline("resnet", numerics.FP16, baseline.Options{
		Samples: 10, Inputs: 1, Tolerance: 0.1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if nb.Experiments != 10 {
		t.Errorf("experiments = %d", nb.Experiments)
	}
	sp, err := fw.Speedup(context.Background(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp) != 6 {
		t.Errorf("speedup rows = %d, want 6 workloads", len(sp))
	}
}

func TestFITChart(t *testing.T) {
	fw, _ := New(accel.NVDLASmall())
	res, err := fw.Analyze(context.Background(), "rnn", numerics.FP16, campaign.StudyOptions{
		Samples: 7, Inputs: 1, Tolerance: 0.1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := FITChart("Fig 4", []*campaign.StudyResult{res}, false)
	s := c.String()
	if !strings.Contains(s, "rnn-lite/FP16") || !strings.Contains(s, "ASIL-D") {
		t.Errorf("chart malformed:\n%s", s)
	}
	p := FITChart("Fig 6", []*campaign.StudyResult{res}, true)
	if !strings.Contains(p.String(), "rnn-lite") {
		t.Error("protected chart malformed")
	}
}

func TestTableRendering(t *testing.T) {
	fw, _ := New(accel.NVDLASmall())
	if !strings.Contains(fw.TableI().String(), "Algorithm 1") {
		t.Error("Table I content")
	}
	t2 := fw.TableII().String()
	for _, frac := range []string{"2.5%", "4.8%", "16.2%", "21.6%", "37.9%", "5.7%", "11.3%"} {
		if !strings.Contains(t2, frac) {
			t.Errorf("Table II missing %s", frac)
		}
	}
}

func TestMaskingTable(t *testing.T) {
	fw, _ := New(accel.NVDLASmall())
	res, err := fw.Analyze(context.Background(), "rnn", numerics.FP16, campaign.StudyOptions{
		Samples: 7, Inputs: 1, Tolerance: 0.1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := MaskingTable(res).String()
	for _, want := range []string{"global-control", "output/psum", "95% CI"} {
		if !strings.Contains(s, want) {
			t.Errorf("masking table missing %q:\n%s", want, s)
		}
	}
}
