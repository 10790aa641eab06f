package dse

import (
	"context"
	"fmt"
	"math"

	"repro/internal/eval"
	"repro/internal/fidelity"
	"repro/internal/hw"
	"repro/internal/ppa"
	"repro/internal/workload"
)

// evaluateAll materializes the full per-layer evaluation of every model on
// one configuration (cache hits when the engine has scored the pair before).
func evaluateAll(ev *eval.Evaluator, models []*workload.Model, cfg hw.Config) ([]*ppa.Eval, error) {
	evals := make([]*ppa.Eval, len(models))
	for i, m := range models {
		e, err := ev.Evaluate(m, cfg)
		if err != nil {
			return nil, err
		}
		evals[i] = e
	}
	return evals, nil
}

// FidelityMode selects the evaluation pipeline of a design-space exploration.
type FidelityMode int

const (
	// FidelityAnalytical is the single-stage default: selection uses the
	// closed-form per-model summaries only. Byte-identical to the historical
	// behavior at any worker count.
	FidelityAnalytical FidelityMode = iota
	// FidelityStaged adds a second stage: the analytical sweep's surviving
	// dominance frontier is re-scored with placement-aware NoP hops, NoC/NoP
	// transfer latency and a compact-thermal junction-temperature check, and
	// the winner is chosen from the refined scores (DESIGN.md §10).
	FidelityStaged
)

// String renders the mode as its CLI flag value.
func (m FidelityMode) String() string {
	if m == FidelityStaged {
		return "staged"
	}
	return "analytical"
}

// ParseFidelityMode parses a -fidelity flag value.
func ParseFidelityMode(s string) (FidelityMode, error) {
	switch s {
	case "", "analytical":
		return FidelityAnalytical, nil
	case "staged":
		return FidelityStaged, nil
	default:
		return FidelityAnalytical, fmt.Errorf("dse: unknown fidelity mode %q (want analytical or staged)", s)
	}
}

// FidelityOptions couples the mode with the physical-model parameters stage 1
// refines against. A nil *FidelityOptions (or the Analytical mode) leaves the
// exploration single-stage.
type FidelityOptions struct {
	Mode   FidelityMode
	Params fidelity.Params
}

// Staged reports whether the options request the two-stage pipeline.
func (fo *FidelityOptions) Staged() bool {
	return fo != nil && fo.Mode == FidelityStaged
}

// RefineStats counts the work of one staged refinement and carries the
// winner's refined scores, so reports can print what selection actually
// compared instead of the analytical numbers (DESIGN.md §10).
type RefineStats struct {
	// Refined is the number of frontier candidates re-scored with the full
	// physical models — the "expensive evaluations" whose ≤5%-of-space
	// budget TestStagedRefinedShare gates.
	Refined int
	// ThermalRejected is how many of them exceeded the junction limit and
	// were rejected (the frontier backfills from the next candidate).
	ThermalRejected int
	// WinnerLatencyS holds the winner's stage-1 refined per-model latencies
	// (analytical + NoC/NoP transfer costs), in model input order. Empty when
	// no winner was selected.
	WinnerLatencyS []float64
	// WinnerPeakTempC is the winner's peak junction temperature from the
	// compact thermal model, in degrees Celsius.
	WinnerPeakTempC float64
}

// RefineSelect runs stage 1 of the multi-fidelity pipeline over an ordered
// candidate list: the analytically slack-feasible dominance frontier, in the
// sweep's (area, index) selection order. Every candidate is materialized into
// its union-kind configuration, fully evaluated per model, physically
// realized (clustering, die split, floorplan), and re-scored with NoC/NoP
// transfer costs; candidates whose peak junction temperature exceeds
// Params.JunctionLimitC (when positive) are rejected. The refined per-model
// reference is the minimum over the surviving candidates, and the winner is
// the first survivor in selection order whose refined latencies pass the
// latency-slack constraint against it — the same discipline the analytical
// stage applies, at higher fidelity. Deterministic: candidates are processed
// sequentially in the given order. Cancellation is checked between
// candidates: a cancelled ctx aborts the refinement with ctx.Err().
func (fo *FidelityOptions) RefineSelect(ctx context.Context, cands []int, models []*workload.Model, space hw.DesignSpace,
	cons Constraints, ev *eval.Evaluator) (int, RefineStats, error) {
	var stats RefineStats
	if ctx == nil {
		ctx = context.Background()
	}
	if len(cands) == 0 {
		return -1, stats, fmt.Errorf("dse: staged selection over an empty frontier")
	}
	// The union-kind template: its unit banks depend only on the models, so
	// each candidate just stamps its point into a copy.
	tmpl := hw.NewConfig(hw.Point{}, models)
	tmpl.Cat = hw.CatalogueOf(space)
	nm := len(models)
	type scored struct {
		idx  int
		lats []float64
		peak float64
	}
	kept := make([]scored, 0, len(cands))
	for _, idx := range cands {
		if err := ctx.Err(); err != nil {
			return -1, stats, err
		}
		cfg := tmpl
		cfg.Point = space.At(idx)
		full, err := evaluateAll(ev, models, cfg)
		if err != nil {
			return -1, stats, err
		}
		pkg, err := fo.Params.Build(fmt.Sprintf("stage1:%d", idx), full)
		if err != nil {
			return -1, stats, err
		}
		stats.Refined++
		row := make([]float64, 0, nm)
		peak := 0.0
		for _, e := range full {
			r := fo.Params.Eval(pkg, e)
			row = append(row, r.LatencyS)
			if r.PeakTempC > peak {
				peak = r.PeakTempC
			}
		}
		if fo.Params.JunctionLimitC > 0 && peak > fo.Params.JunctionLimitC {
			stats.ThermalRejected++
			continue
		}
		kept = append(kept, scored{idx: idx, lats: row, peak: peak})
	}
	if len(kept) == 0 {
		return -1, stats, fmt.Errorf("dse: staged selection rejected all %d frontier candidates: peak junction temperature exceeds %.0f C",
			stats.Refined, fo.Params.JunctionLimitC)
	}
	ref := make([]float64, nm)
	for i := range ref {
		ref[i] = math.Inf(1)
	}
	for _, s := range kept {
		for i, l := range s.lats {
			if l < ref[i] {
				ref[i] = l
			}
		}
	}
	for _, s := range kept {
		if slackOK(s.lats, ref, cons.LatencySlack) {
			stats.WinnerLatencyS = s.lats
			stats.WinnerPeakTempC = s.peak
			return s.idx, stats, nil
		}
	}
	return -1, stats, fmt.Errorf("dse: no refined frontier candidate meets latency slack %.2f", cons.LatencySlack)
}
