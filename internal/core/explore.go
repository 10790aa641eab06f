package core

// The framework's one dispatcher for design-space optimization: every phase —
// per-model custom DSE, the generic configuration, per-subset library
// configurations, test-phase assignment and library extension — and every
// front end (claire, clairedse, claired) explores through Explore, so
// Options.Search and Options.Fidelity switch the whole system between the
// exhaustive streaming sweep, the budgeted metaheuristic layer and staged
// multi-fidelity selection in exactly one place.

import (
	"context"

	"repro/internal/dse"
	"repro/internal/search"
	"repro/internal/workload"
)

// SearchOptions routes every design-space exploration through the budgeted
// metaheuristic layer (internal/search) instead of the exhaustive streaming
// sweep. Results remain deterministic for a fixed seed at any worker count;
// a budget covering the whole space falls back to the exhaustive sweep, so
// the setting degrades gracefully on small spaces.
type SearchOptions struct {
	// Spec selects and parameterizes the strategy (see search.ParseSpec).
	Spec search.Spec
	// Budget is the evaluation budget in point x model summary-evaluation
	// units, per exploration (0: the search layer's default of 5% of the
	// space, floor 64 points).
	Budget int
	// Seed drives the strategy's random source.
	Seed int64
}

// Explore runs one multi-model design-space optimization over o.Space under
// o.Constraints: the exhaustive streaming sweep when o.Search is nil, the
// budgeted search otherwise, either one followed by staged refinement when
// o.Fidelity is staged. ctx bounds the run (nil: context.Background()).
// progress, when non-nil, receives the exhaustive sweep's scan progress (see
// dse.ExploreOptions.Progress). The returned trace is non-nil exactly when
// the search layer ran.
func Explore(ctx context.Context, models []*workload.Model, o Options, progress func(done, total int)) (dse.Result, *search.Trace, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Analytical mode passes no fidelity options: the sweep's zero-overhead
	// single-stage path.
	var fo *dse.FidelityOptions
	if o.Fidelity == dse.FidelityStaged {
		fo = &dse.FidelityOptions{Mode: dse.FidelityStaged, Params: o.FidelityParams()}
	}
	if o.Search == nil {
		res, err := dse.ExploreSpaceCtx(ctx, models, o.Space, o.Constraints, o.Evaluator,
			&dse.ExploreOptions{Fidelity: fo, Progress: progress})
		return res, nil, err
	}
	opt, err := search.New(o.Search.Spec, search.Options{Seed: o.Search.Seed, Evaluator: o.Engine(), Fidelity: fo})
	if err != nil {
		return dse.Result{}, nil, err
	}
	res, tr, err := opt.Run(ctx, models, o.Space, o.Constraints, o.Search.Budget)
	return res, &tr, err
}
