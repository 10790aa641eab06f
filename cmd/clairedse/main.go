// Command clairedse explores the raw design space for one algorithm: it
// sweeps all 81 tunable hardware configurations, prints each point's PPA and
// constraint status, and marks the selected custom configuration — the
// per-algorithm view of Algorithm 1, lines 1-8.
//
// Usage:
//
//	clairedse -model Resnet50
//	clairedse -model BERT-base -feasible   # only constraint-satisfying rows
//	clairedse -model VGG16 -pareto         # only area/latency Pareto points
//	clairedse -model GPT2 -cpuprofile cpu.pprof -memprofile mem.pprof
//	clairedse -model Resnet50 -space mix -catalogue examples/catalogue/mobile-7nm.json
//	clairedse -model Resnet50 -space mixfine -search anneal -budget 5000 -seed 7
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/hw"
)

func main() {
	model := flag.String("model", "Resnet50", "algorithm to explore")
	onlyFeasible := flag.Bool("feasible", false, "print only feasible points")
	onlyPareto := flag.Bool("pareto", false, "print only area/latency Pareto-optimal points")
	workers := flag.Int("workers", 0, "evaluation workers (0 = GOMAXPROCS, 1 = serial)")
	spaceFlag := flag.String("space", "paper", "design space: paper, fine, mix, mixfine, or AxBxCxD axis cardinalities")
	catalogueFlag := flag.String("catalogue", "", "chiplet catalogue JSON file (empty: built-in 28nm default)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU pprof profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap pprof profile to this file on exit")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex-contention pprof profile to this file on exit")
	blockProfile := flag.String("blockprofile", "", "write a goroutine-blocking pprof profile to this file on exit")
	searchFlag := flag.String("search", "", "budgeted search instead of the exhaustive sweep: anneal or genetic, with optional :key=val,... params")
	budget := flag.Int("budget", 0, "search evaluation budget in point x model units (0: 5% of the space)")
	seed := flag.Int64("seed", 0, "search random seed")
	fidelityFlag := flag.String("fidelity", "analytical", "evaluation pipeline: analytical (single-stage) or staged (frontier re-scored with NoC/placement/thermal models)")
	flag.Parse()

	cat, err := hw.LoadCatalogue(*catalogueFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clairedse:", err)
		os.Exit(2)
	}
	q := core.Query{Models: []string{*model}, Space: *spaceFlag, Search: *searchFlag,
		Budget: *budget, Seed: *seed, Fidelity: *fidelityFlag}
	models, o, err := q.Resolve(cat)
	if err == nil {
		o.Workers = *workers
		err = o.Validate()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "clairedse:", err)
		os.Exit(2)
	}
	o.Evaluator = o.Engine()
	ev, m := o.Evaluator, models[0]

	stopProfiling, err := core.StartProfiles(core.ProfileConfig{
		CPU: *cpuProfile, Mem: *memProfile, Mutex: *mutexProfile, Block: *blockProfile,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "clairedse:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfiling(); err != nil {
			fmt.Fprintln(os.Stderr, "clairedse:", err)
		}
	}()

	// The exhaustive run prints a per-point table, which inherently
	// materializes every row, so it sweeps SweepSpace's explicit point list
	// first; the selection then re-reads those evaluations from the engine's
	// cache. A budgeted search prints no table (the whole point is not
	// visiting every row), only the winner and the trace.
	var pts []dse.SpacePoint
	if o.Search == nil {
		pts, err = dse.SweepSpace(m, o.Space, o.Constraints, ev)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clairedse:", err)
			os.Exit(1)
		}
	}
	res, tr, err := core.Explore(context.Background(), models, o, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clairedse:", err)
		os.Exit(1)
	}

	if tr != nil {
		fmt.Printf("%s: %s search selected %v (%.1f mm2) on %s\n",
			m.Name, tr.Strategy, res.Config.Point, res.Config.AreaMM2(), res.SpaceDesc)
		fmt.Printf("budget: %d evaluations (%d unique points, %.1f%% of the space), winner found after %d; %d cache hits\n",
			tr.Evaluations, tr.UniquePoints, 100*float64(tr.UniquePoints)/float64(o.Space.Len()), tr.EvalsToWin, tr.CacheHits)
		if tr.Fallback {
			fmt.Printf("budget covered the whole space: fell back to the exhaustive streaming sweep (%d points skipped by the early-exit certificate)\n",
				tr.SkippedPoints)
		}
	} else {
		printTable(pts, res, *onlyFeasible, *onlyPareto)
	}
	// Staged runs also print the winner's stage-1 refined scores: what
	// selection actually compared, next to the analytical numbers.
	if r := res.Refined; r != nil {
		fmt.Printf("staged fidelity: %d frontier candidates refined with the physical models, %d rejected on junction temperature\n",
			r.Refined, r.ThermalRejected)
		for i, lat := range r.WinnerLatencyS { // one per model, in input order
			e := res.Evals[i]
			fmt.Printf("winner refined latency (%s): %.3f ms analytical -> %.3f ms with NoC/NoP transfer; peak Tj %.1f C\n",
				e.Model.Name, e.LatencyS*1e3, lat*1e3, r.WinnerPeakTempC)
		}
	}
	if tr != nil {
		for _, imp := range tr.Improvements {
			fmt.Printf("  improvement at eval %d: %.1f mm2 %s\n", imp.Evals, imp.AreaMM2, imp.Point)
		}
	}
	s := ev.Stats()
	fmt.Printf("eval engine: %d workers, %d entries, %d hits / %d misses (%.0f%% hit rate)\n",
		ev.Workers(), s.Entries, s.Hits, s.Misses, 100*s.HitRate())
}

// printTable prints the exhaustive sweep's per-point table, marking the
// selected configuration, and its one-line summary.
func printTable(pts []dse.SpacePoint, sel dse.Result, onlyFeasible, onlyPareto bool) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Configuration\tArea(mm2)\tLatency(ms)\tEnergy(mJ)\tPD(W/mm2)\tFeasible\tPareto\tSelected\n")
	printed := 0
	for _, p := range pts {
		if onlyFeasible && !p.Feasible {
			continue
		}
		if onlyPareto && !p.Pareto {
			continue
		}
		mark := ""
		if p.Point == sel.Config.Point {
			mark = "<== C_i"
		}
		fmt.Fprintf(w, "%v\t%.1f\t%.3f\t%.2f\t%.2f\t%v\t%v\t%s\n",
			p.Point, p.Eval.AreaMM2, p.Eval.LatencyS*1e3, p.Eval.EnergyPJ()*1e-9,
			p.Eval.PowerDensity(), p.Feasible, p.Pareto, mark)
		printed++
	}
	w.Flush()
	fmt.Printf("\n%s: %d/%d points printed (%s), %d feasible, %d on the Pareto front; selected %v (%.1f mm2)\n",
		sel.Evals[0].Model.Name, printed, len(pts), sel.SpaceDesc, sel.Feasible, len(dse.ParetoFront(pts)),
		sel.Config.Point, sel.Config.AreaMM2())
}
