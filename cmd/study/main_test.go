package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary impersonate the CLI: when re-exec'd with
// the marker env var set, it runs main() instead of the test suite, so CLI
// tests exercise real flag parsing and exit codes without a separate build.
func TestMain(m *testing.M) {
	if os.Getenv("STUDY_CLI_TEST") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "STUDY_CLI_TEST=1")
	// Run in a scratch dir so the default -manifest artifact lands there,
	// not in the package directory.
	cmd.Dir = t.TempDir()
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

func TestExistingFlagValidationStillExitsTwo(t *testing.T) {
	out, code := runCLI(t, "-samples", "0", "-setup")
	if code != 2 || !strings.Contains(out, "-samples must be positive") {
		t.Fatalf("-samples 0: exit %d, output:\n%s", code, out)
	}
}

func TestTargetCIExcludesSamples(t *testing.T) {
	out, code := runCLI(t, "-target-ci", "0.05", "-samples", "100", "-setup")
	if code != 2 || !strings.Contains(out, "mutually exclusive") {
		t.Fatalf("-target-ci with -samples: exit %d, output:\n%s", code, out)
	}
}

func TestTargetCIRangeValidated(t *testing.T) {
	for _, bad := range []string{"0.6", "-0.1", "NaN"} {
		out, code := runCLI(t, "-target-ci", bad, "-setup")
		if code != 2 {
			t.Errorf("-target-ci %s: exit %d, want usage exit 2\n%s", bad, code, out)
		}
		if !strings.Contains(out, "-target-ci must be in (0, 0.5]") {
			t.Errorf("-target-ci %s: missing validation message:\n%s", bad, out)
		}
	}
}

func TestTargetCIAccepted(t *testing.T) {
	// A valid -target-ci without -samples parses cleanly; -setup exits 0
	// before any campaign runs.
	out, code := runCLI(t, "-target-ci", "0.05", "-setup")
	if code != 0 || !strings.Contains(out, "Table IV") {
		t.Fatalf("-target-ci 0.05 -setup: exit %d, output:\n%s", code, out)
	}
}
