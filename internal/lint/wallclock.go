package lint

import (
	"go/ast"
)

// wallClockExempt lists packages whose job is measuring or reporting wall
// time: telemetry owns timing instrumentation, and benchmark tooling exists
// to measure elapsed time. Everywhere else in internal/ and the root façade,
// a time.Now read in a decision path makes the outcome depend on when the
// run happened — breaking replay bit-exactness (PR 4) and checkpoint
// identity (PR 2).
var wallClockExempt = []string{
	"internal/telemetry",
	"internal/bench",
}

// wallClockFuncs are the time package functions that read the wall clock.
// time.Sleep and timers are deliberately not flagged: they control pacing,
// not computed results.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// WallClock forbids wall-clock reads in engine packages.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc: `wallclock: engine decision paths must not read the wall clock

time.Now / time.Since / time.Until in engine code make results a function
of when the campaign ran: replay (PR 4) recomputes a fault's downstream
cone and must reproduce the original bits; checkpoints (PR 2) must hash
identically on resume. Telemetry owns timing instrumentation
(internal/telemetry) and benchmark code measures elapsed time by design;
both are exempt. The root fidelity package runs the same campaigns and is
in scope; cmd/ binaries stamping manifest timestamps and examples/ are not.

Legitimate wall-clock uses inside the engine — lease TTL liveness in the
distrib coordinator, the Sec. VI speedup measurement that IS a timing
deliverable — carry a //lint:allow wallclock <reason> at the call site, so
every such read is an audited decision.`,
	Run: runWallClock,
}

func runWallClock(pass *Pass) {
	pkgPath := pass.Pkg.Path()
	if !pathMatches(pkgPath, "internal") && !pathMatches(pkgPath, modulePath) {
		return
	}
	if pathMatchesAny(pkgPath, wallClockExempt) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name := pkgFunc(pass.Info, call)
			if pkg != "time" || !wallClockFuncs[name] {
				return true
			}
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock in engine code; timing belongs to telemetry — if this read is genuinely about liveness or measurement, annotate it with //lint:allow wallclock <reason>", name)
			return true
		})
	}
}
