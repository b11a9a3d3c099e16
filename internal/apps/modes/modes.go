// Package modes maps the paper's tool-configuration names (native, tsan11,
// rr, tsan11+rr, rnd, queue, rnd+rec, queue+rec, pct) onto core.Options.
// Every evaluation driver and benchmark uses these so that a configuration
// means the same thing in every table.
package modes

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/rrmodel"
)

// Names of the standard configurations, in the order tables print them.
var Names = []string{
	"native", "rr", "tsan11", "tsan11+rr",
	"rnd", "queue", "rnd+rec", "queue+rec", "pct", "delay",
}

// Options returns the core configuration for a named mode. reportRaces
// selects the paper's "race reports" vs "no reports" columns (ignored by
// modes that do no detection).
func Options(mode string, seed uint64, reportRaces bool) (core.Options, error) {
	s1, s2 := seed*2654435761+1, seed^0x9e3779b97f4a7c15
	switch mode {
	case "native":
		// Uninstrumented execution on the raw Go scheduler.
		o := core.UncontrolledOptions(true)
		o.Seed1, o.Seed2 = s1, s2
		return o, nil
	case "rr":
		// rr without race detection: sequentialised, records everything.
		o := rrmodel.Options(s1, s2, true)
		o.DisableRaces = true
		return o, nil
	case "tsan11":
		// Race detection at the mercy of the OS (Go) scheduler.
		o := core.UncontrolledOptions(false)
		o.ReportRaces = reportRaces
		o.Seed1, o.Seed2 = s1, s2
		return o, nil
	case "tsan11+rr":
		// tsan11-instrumented code running under rr.
		o := rrmodel.Options(s1, s2, true)
		o.ReportRaces = reportRaces
		return o, nil
	case "rnd+rec":
		o := core.RecordOptions(demo.StrategyRandom, s1, s2)
		o.ReportRaces = reportRaces
		return o, nil
	case "queue+rec":
		o := core.RecordOptions(demo.StrategyQueue, s1, s2)
		o.ReportRaces = reportRaces
		return o, nil
	default:
		// The plain strategy modes: rnd, queue, pct, delay.
		strat, err := demo.ParseStrategy(mode)
		if err != nil {
			return core.Options{}, fmt.Errorf("modes: unknown mode %q", mode)
		}
		return core.Options{Strategy: strat, Seed1: s1, Seed2: s2, ReportRaces: reportRaces}, nil
	}
}
