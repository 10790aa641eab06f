// Package serve turns the CLAIRE library into long-running infrastructure:
// an HTTP/JSON job server (claired) exposing design-space exploration,
// train-phase sweeps and the differential self-check over the existing
// core/dse/search/fidelity layers (DESIGN.md §11).
//
// The package is split along its concerns:
//
//   - api.go: the wire types, their mapping onto core.Query (which
//     validates requests and derives the coalescing key), and the result
//     encodings pinned byte-identical to the equivalent CLI invocation.
//   - job.go: the job manager — bounded queue, worker pool, admission
//     control, request coalescing, refcounted waiter attachment and
//     context-based cancellation.
//   - exec.go: the mapping from an admitted job to the library call that
//     serves it, over one process-lifetime shared evaluation engine.
//   - server.go: the HTTP surface — endpoints, sync waits, NDJSON/SSE
//     progress streaming, /metrics and /healthz.
package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/hw"
	"repro/internal/search"
)

// Job kinds.
const (
	KindExplore   = "explore"
	KindSweep     = "sweep"
	KindSelfcheck = "selfcheck"
)

// ConstraintsSpec overrides Input #4 limits per request; nil fields keep the
// reproduction defaults. It is the wire form of core.ConstraintOverrides and
// must keep the same fields in the same order (the two convert directly).
type ConstraintsSpec struct {
	MaxChipAreaMM2         *float64 `json:"max_chip_area_mm2,omitempty"`
	MaxPowerDensityWPerMM2 *float64 `json:"max_power_density_w_mm2,omitempty"`
	LatencySlack           *float64 `json:"latency_slack,omitempty"`
}

// ExploreRequest asks for one multi-model design-space optimization — the
// served equivalent of `claire`/`clairedse` exploration: exhaustive streaming
// sweep by default, budgeted metaheuristic search when Search is set, staged
// multi-fidelity selection when Fidelity is "staged". Every field but Sync is
// the same-named core.Query field, and resolves by its rules against the
// server's catalogue.
type ExploreRequest struct {
	// Models names the workloads (workload.ByName); at least one.
	Models []string `json:"models"`
	// Space selects the design space: paper (default), fine, mix, mixfine,
	// or AxBxCxD axis cardinalities.
	Space string `json:"space,omitempty"`
	// Constraints overrides Input #4 limits.
	Constraints *ConstraintsSpec `json:"constraints,omitempty"`
	// Search selects a budgeted strategy ("anneal", "genetic", with optional
	// :key=val params). Empty: exhaustive sweep.
	Search string `json:"search,omitempty"`
	// Budget is the search evaluation budget (0: the layer's 5% default).
	Budget int `json:"budget,omitempty"`
	// Seed drives the search strategy's random stream.
	Seed int64 `json:"seed,omitempty"`
	// Fidelity is "analytical" (default) or "staged".
	Fidelity string `json:"fidelity,omitempty"`
	// Sync makes the POST wait for the result instead of returning a job id.
	Sync bool `json:"sync,omitempty"`
}

// SweepRequest asks for an ablation sweep: Kind "tau" retrains subset
// formation across similarity thresholds (core.SweepTau), Kind "slack"
// re-runs one model's custom DSE across latency-slack values
// (core.SweepSlack).
type SweepRequest struct {
	Kind string `json:"kind"`
	// Models names the training workloads for a tau sweep; Model names the
	// single algorithm for a slack sweep.
	Models []string `json:"models,omitempty"`
	Model  string   `json:"model,omitempty"`
	// Values are the sweep's tau or slack samples; at least one.
	Values []float64 `json:"values"`
	// Space, Fidelity and Sync behave as in ExploreRequest.
	Space    string `json:"space,omitempty"`
	Fidelity string `json:"fidelity,omitempty"`
	Sync     bool   `json:"sync,omitempty"`
}

// SelfcheckRequest runs the differential validation battery (internal/check)
// with the given seed against the server's catalogue.
type SelfcheckRequest struct {
	Seed int64 `json:"seed,omitempty"`
	Sync bool  `json:"sync,omitempty"`
}

// ModelPPA is one model's analytical evaluation on the selected winner.
type ModelPPA struct {
	Model           string  `json:"model"`
	LatencyS        float64 `json:"latency_s"`
	EnergyPJ        float64 `json:"energy_pj"`
	AreaMM2         float64 `json:"area_mm2"`
	PowerDensityWmm float64 `json:"power_density_w_mm2"`
}

// RefinedResult exposes staged fidelity's stage-1 scores (satellite of the
// same PR: the numbers selection actually compared).
type RefinedResult struct {
	Candidates      int       `json:"refined_candidates"`
	ThermalRejected int       `json:"thermal_rejected"`
	WinnerPeakTempC float64   `json:"winner_peak_temp_c"`
	WinnerLatencyS  []float64 `json:"winner_latency_s,omitempty"`
}

// SearchTrace digests the budgeted search accounting for served runs.
type SearchTrace struct {
	Strategy     string  `json:"strategy"`
	Budget       int     `json:"budget"`
	Evaluations  int     `json:"evaluations"`
	UniquePoints int     `json:"unique_points"`
	EvalsToWin   int     `json:"evals_to_win"`
	CacheHits    int     `json:"cache_hits"`
	BestAreaMM2  float64 `json:"best_area_mm2"`
	Fallback     bool    `json:"fallback,omitempty"`
}

// ExploreResult is the served exploration winner. It is built exclusively by
// ExploreResultOf so the server's JSON is byte-identical to what the same
// library call would produce anywhere else — the determinism contract the
// CLI-vs-server tests pin.
type ExploreResult struct {
	Point     string         `json:"point"`
	AreaMM2   float64        `json:"area_mm2"`
	Models    []ModelPPA     `json:"models"`
	Feasible  int            `json:"feasible"`
	Explored  int            `json:"explored"`
	SpaceDesc string         `json:"space_desc"`
	Refined   *RefinedResult `json:"staged_refinement,omitempty"`
	Search    *SearchTrace   `json:"search,omitempty"`
}

// ExploreResultOf projects a dse.Result (and optional search trace) onto the
// wire shape.
func ExploreResultOf(res dse.Result, tr *search.Trace) ExploreResult {
	out := ExploreResult{
		Point:     res.Config.Point.String(),
		AreaMM2:   res.Config.AreaMM2(),
		Feasible:  res.Feasible,
		Explored:  res.Explored,
		SpaceDesc: res.SpaceDesc,
	}
	for _, e := range res.Evals {
		out.Models = append(out.Models, ModelPPA{
			Model:           e.Model.Name,
			LatencyS:        e.LatencyS,
			EnergyPJ:        e.EnergyPJ(),
			AreaMM2:         e.AreaMM2,
			PowerDensityWmm: e.PowerDensity(),
		})
	}
	if r := res.Refined; r != nil {
		out.Refined = &RefinedResult{
			Candidates:      r.Refined,
			ThermalRejected: r.ThermalRejected,
			WinnerPeakTempC: r.WinnerPeakTempC,
			WinnerLatencyS:  r.WinnerLatencyS,
		}
	}
	if tr != nil {
		out.Search = &SearchTrace{
			Strategy:     tr.Strategy,
			Budget:       tr.Budget,
			Evaluations:  tr.Evaluations,
			UniquePoints: tr.UniquePoints,
			EvalsToWin:   tr.EvalsToWin,
			CacheHits:    tr.CacheHits,
			BestAreaMM2:  tr.BestAreaMM2,
			Fallback:     tr.Fallback,
		}
	}
	return out
}

// SweepResult is a served ablation sweep.
type SweepResult struct {
	Kind string `json:"kind"`
	// Tau is set for tau sweeps, Slack for slack sweeps.
	Tau   []TauPoint   `json:"tau,omitempty"`
	Slack []SlackPoint `json:"slack,omitempty"`
}

// TauPoint mirrors core.TauPoint with wire tags.
type TauPoint struct {
	Tau           float64 `json:"tau"`
	Subsets       int     `json:"subsets"`
	MeanBenefit   float64 `json:"mean_benefit"`
	MaxSubsetSize int     `json:"max_subset_size"`
}

// SlackPoint mirrors core.SlackPoint with wire tags.
type SlackPoint struct {
	Slack     float64 `json:"slack"`
	AreaMM2   float64 `json:"area_mm2"`
	LatencyMS float64 `json:"latency_ms"`
	Feasible  int     `json:"feasible"`
}

// SelfcheckResult digests a check.Report.
type SelfcheckResult struct {
	OK         bool     `json:"ok"`
	Checks     int      `json:"checks"`
	Failed     int      `json:"failed"`
	Violations []string `json:"violations,omitempty"`
}

// query maps the request onto the one exploration query every front end
// shares (core.Query); Sync is delivery, not part of the computation.
func (req *ExploreRequest) query() core.Query {
	q := core.Query{
		Models: req.Models, Space: req.Space, Search: req.Search,
		Budget: req.Budget, Seed: req.Seed, Fidelity: req.Fidelity,
	}
	if req.Constraints != nil {
		q.Constraints = core.ConstraintOverrides(*req.Constraints)
	}
	return q
}

// query maps a sweep onto the exploration query each of its samples runs:
// the tau sweep's training models or the slack sweep's single model, on the
// requested space and fidelity with default constraints.
func (req *SweepRequest) query() core.Query {
	names := req.Models
	if req.Kind == "slack" {
		names = nil
		if req.Model != "" {
			names = []string{req.Model}
		}
	}
	return core.Query{Models: names, Space: req.Space, Fidelity: req.Fidelity}
}

// validateSweep checks the sweep-specific fields; the shared ones are
// checked by resolving the sweep's query.
func validateSweep(req *SweepRequest) error {
	if req.Kind != "tau" && req.Kind != "slack" {
		return fmt.Errorf("serve: unknown sweep kind %q (want tau or slack)", req.Kind)
	}
	if len(req.Values) == 0 {
		return fmt.Errorf("serve: empty sweep values")
	}
	for _, v := range req.Values {
		if v < 0 {
			return fmt.Errorf("serve: negative sweep value %g", v)
		}
	}
	return nil
}

// selfcheckKey is the coalescing key of a selfcheck request.
func selfcheckKey(req *SelfcheckRequest, cat *hw.Catalogue) string {
	return fmt.Sprintf("%s|seed=%d|cat=%s", KindSelfcheck, req.Seed, cat.Fingerprint())
}
