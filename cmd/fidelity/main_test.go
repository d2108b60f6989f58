package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("FIDELITY_CLI_TEST") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FIDELITY_CLI_TEST=1")
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

func TestSensitivityTargetCIExcludesSamples(t *testing.T) {
	out, code := runCLI(t, "sensitivity", "-target-ci", "0.05", "-samples", "100")
	if code != 2 || !strings.Contains(out, "mutually exclusive") {
		t.Fatalf("sensitivity -target-ci with -samples: exit %d, output:\n%s", code, out)
	}
}

func TestSensitivityTargetCIRangeValidated(t *testing.T) {
	for _, bad := range []string{"0.6", "-0.2", "NaN"} {
		out, code := runCLI(t, "sensitivity", "-target-ci", bad)
		if code != 2 || !strings.Contains(out, "-target-ci must be in (0, 0.5]") {
			t.Errorf("sensitivity -target-ci %s: exit %d, output:\n%s", bad, code, out)
		}
	}
}

func TestUnknownSubcommandExitsTwo(t *testing.T) {
	out, code := runCLI(t, "nosuchcmd")
	if code != 2 || !strings.Contains(out, "usage:") {
		t.Fatalf("unknown subcommand: exit %d, output:\n%s", code, out)
	}
}

func TestTable1Runs(t *testing.T) {
	out, code := runCLI(t, "table1")
	if code != 0 || !strings.Contains(out, "Table I") {
		t.Fatalf("table1: exit %d, output:\n%s", code, out)
	}
}
