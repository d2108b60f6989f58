package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("FIDELITYD_CLI_TEST") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FIDELITYD_CLI_TEST=1")
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return buf.String(), code
}

// serve's flag validation runs before any listener binds, so rejected
// invocations exit immediately without touching the network.
func TestServeTargetCIExcludesSamples(t *testing.T) {
	out, code := runCLI(t, "serve", "-target-ci", "0.05", "-samples", "100")
	if code != 2 || !strings.Contains(out, "mutually exclusive") {
		t.Fatalf("serve -target-ci with -samples: exit %d, output:\n%s", code, out)
	}
}

func TestServeTargetCIRangeValidated(t *testing.T) {
	for _, bad := range []string{"0.7", "-0.05", "NaN"} {
		out, code := runCLI(t, "serve", "-target-ci", bad)
		if code != 2 || !strings.Contains(out, "-target-ci must be in (0, 0.5]") {
			t.Errorf("serve -target-ci %s: exit %d, output:\n%s", bad, code, out)
		}
	}
}

// A non-finite tolerance cannot be encoded into the campaign's status or
// state, so serve must refuse it up front instead of starting a campaign no
// worker can lease from.
func TestServeToleranceValidated(t *testing.T) {
	for _, bad := range []string{"NaN", "Inf", "-0.1"} {
		out, code := runCLI(t, "serve", "-addr", "127.0.0.1:0", "-tolerance", bad)
		if code != 2 || !strings.Contains(out, "-tolerance must be finite and non-negative") {
			t.Errorf("serve -tolerance %s: exit %d, output:\n%s", bad, code, out)
		}
	}
}

func TestServeLeaseTTLStillValidated(t *testing.T) {
	out, code := runCLI(t, "serve", "-lease-ttl", "-1s")
	if code != 2 || !strings.Contains(out, "-lease-ttl must be positive") {
		t.Fatalf("serve -lease-ttl -1s: exit %d, output:\n%s", code, out)
	}
}

func TestServeAuditFractionValidated(t *testing.T) {
	for _, bad := range []string{"-0.1", "1.5", "NaN"} {
		out, code := runCLI(t, "serve", "-audit-fraction", bad)
		if code != 2 {
			t.Errorf("serve -audit-fraction %s: exit %d, want usage exit 2\n%s", bad, code, out)
		}
		if !strings.Contains(out, "-audit-fraction must be in [0,1]") {
			t.Errorf("serve -audit-fraction %s: missing validation message:\n%s", bad, out)
		}
	}
}

func TestServeDrainTimeoutValidated(t *testing.T) {
	out, code := runCLI(t, "serve", "-drain-timeout", "-5s")
	if code != 2 || !strings.Contains(out, "-drain-timeout must be non-negative") {
		t.Fatalf("serve -drain-timeout -5s: exit %d, output:\n%s", code, out)
	}
}
