package lint

import "testing"

func TestPathMatches(t *testing.T) {
	cases := []struct {
		pkgPath, pattern string
		want             bool
	}{
		{"fidelity/internal/campaign", "internal/campaign", true},
		{"fidelity/internal/campaign/ctxfixpos", "internal/campaign", true},
		{"fidelity/internal/campaignx", "internal/campaign", false},
		{"fidelity/internal/camp", "internal/campaign", false},
		{"fidelity/cmd/study", "cmd", true},
		{"fidelity/cmd/study", "cmd/study", true},
		{"internal/campaign", "internal", true},
		{"fidelity/examples/quickstart", "internal", false},
		// The module root names the root package only.
		{"fidelity", "fidelity", true},
		{"fidelity/internal/campaign", "fidelity", false},
		{"fidelity/cmd/fidelity", "fidelity", false},
		{"fidelity/examples/quickstart", "fidelity", false},
		{"fidelity_test", "fidelity", false},
	}
	for _, c := range cases {
		if got := pathMatches(c.pkgPath, c.pattern); got != c.want {
			t.Errorf("pathMatches(%q, %q) = %v, want %v", c.pkgPath, c.pattern, got, c.want)
		}
	}
}

// TestRootPackageInScope: the root façade runs whole campaigns, so the
// analyzers that guard campaign code cover it too.
func TestRootPackageInScope(t *testing.T) {
	runFixture(t, "fidelity", CtxFlow, WallClock, MapOrder)
}
