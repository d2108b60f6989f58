// Package fidelity stands in for the module's root façade, which ctxflow,
// wallclock and maporder cover like the engine packages under internal/.
package fidelity

import (
	"context"
	"time"
)

func analyze(ctx context.Context) error { return ctx.Err() }

// Analyze re-roots the campaign's context.
func Analyze() error { // want `exported Analyze calls context-aware analyze but takes no context.Context`
	return analyze(context.Background()) // want `context.Background roots a fresh context`
}

func stamp() time.Time {
	return time.Now() // want `time.Now reads the wall clock`
}

func labels(m map[string]int) []string {
	var out []string
	for k := range m { // want `appends to out without a deterministic sort`
		out = append(out, k)
	}
	return out
}
