// Command strategies compares the bug-finding effectiveness of the
// scheduling strategies — random, queue, PCT and delay bounding — over the
// litmus suite, extending the paper's Table 1 with its §7 future-work
// strategies. For each program it reports each strategy's race rate and
// the mean number of seeds to first race (the budget a bug hunt needs).
//
// Usage:
//
//	strategies [-runs N] [-budget B]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/apps/litmus"
	"repro/internal/apps/modes"
	"repro/internal/core"
	"repro/internal/stats"
)

var strategyNames = []string{"rnd", "pct", "delay", "queue"}

func main() {
	runs := flag.Int("runs", 300, "runs per program per strategy for the rate")
	budget := flag.Int("budget", 200, "max seeds when measuring time-to-first-race")
	flag.Parse()

	table := &stats.Table{Header: append([]string{"Test"}, header()...)}
	for _, p := range litmus.Programs {
		row := []string{p.Name}
		for _, mode := range strategyNames {
			raced := 0
			for r := 0; r < *runs; r++ {
				opts, err := modes.Options(mode, uint64(r)*6007+29, true)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(2)
				}
				res := litmus.RunOnce(p, opts)
				if res.Err != nil {
					fmt.Fprintf(os.Stderr, "%s/%s: %v\n", p.Name, mode, res.Err)
					os.Exit(1)
				}
				if res.Races > 0 {
					raced++
				}
			}
			first := firstRaceSeed(p, mode, *budget)
			row = append(row,
				fmt.Sprintf("%.1f%%", 100*float64(raced)/float64(*runs)),
				firstStr(first, *budget))
		}
		table.AddRow(row...)
	}
	fmt.Printf("Strategy comparison over the CDSchecker suite (%d runs per rate)\n\n", *runs)
	fmt.Print(table.String())
	fmt.Println("\n\"first\" is the number of seeds until the first racy execution")
	fmt.Println("(a bug hunter's budget); PCT and delay bounding are the paper's")
	fmt.Println("§7 future-work strategies, implemented here as extensions.")
}

func header() []string {
	var h []string
	for _, s := range strategyNames {
		h = append(h, s+" rate", s+" first")
	}
	return h
}

func firstRaceSeed(p core.Program, mode string, budget int) int {
	for seed := 1; seed <= budget; seed++ {
		opts, err := modes.Options(mode, uint64(seed)*31+1, true)
		if err != nil {
			return -1
		}
		res := litmus.RunOnce(p, opts)
		if res.Err == nil && res.Races > 0 {
			return seed
		}
	}
	return -1
}

func firstStr(seed, budget int) string {
	if seed < 0 {
		return fmt.Sprintf(">%d", budget)
	}
	return fmt.Sprintf("%d", seed)
}
