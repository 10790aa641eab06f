package core

import (
	"fmt"
	"strings"

	"repro/internal/dse"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/search"
	"repro/internal/workload"
)

// Query is one exploration request in its spelled-out form: Algorithm 1's
// algorithms, tunable-hardware space, Input #4 constraints and evaluation
// fidelity, plus the budgeted-search policy. Every front end — the claire
// and clairedse flags, claired's JSON bodies — maps its input onto a Query
// and resolves it with Resolve, so all of them accept, reject and interpret
// a request by one rule set.
type Query struct {
	// Models names the workloads (workload.ByName), in input order.
	Models []string
	// Space is a design-space spec for hw.ParseSpaceWith: paper (also the
	// empty default), fine, mix, mixfine or AxBxCxD.
	Space string
	// Constraints overrides Input #4 limits; nil fields keep the defaults.
	Constraints ConstraintOverrides
	// Search selects a budgeted strategy in the search.ParseSpec grammar;
	// empty selects the exhaustive streaming sweep.
	Search string
	// Budget is the search evaluation budget (0: the search layer's 5%
	// default); never negative.
	Budget int
	// Seed drives the search strategy's random stream.
	Seed int64
	// Fidelity is "analytical" (also the empty default) or "staged".
	Fidelity string
}

// ConstraintOverrides replaces individual Input #4 limits of
// dse.DefaultConstraints; a nil field keeps the default.
type ConstraintOverrides struct {
	MaxChipAreaMM2         *float64
	MaxPowerDensityWPerMM2 *float64
	LatencySlack           *float64
}

// Resolve checks every field of the query against the chiplet catalogue
// (nil: the built-in default) and returns the named models plus the
// reproduction defaults with the query applied: catalogue, space,
// constraints, search policy and fidelity. Each error names the offending
// field. The caller still owns the engine-related fields (Workers,
// Evaluator).
func (q Query) Resolve(cat *hw.Catalogue) ([]*workload.Model, Options, error) {
	if cat == nil {
		cat = hw.Default()
	}
	bad := func(field string, err error) ([]*workload.Model, Options, error) {
		return nil, Options{}, fmt.Errorf("core: query %s: %w", field, err)
	}
	known := func() string { return strings.Join(workload.Names(), ", ") }
	if len(q.Models) == 0 {
		return bad("models", fmt.Errorf("no models named (known: %s)", known()))
	}
	models := make([]*workload.Model, len(q.Models))
	for i, name := range q.Models {
		m, err := workload.ByName(name)
		if err != nil {
			return bad("models", fmt.Errorf("%w (known: %s)", err, known()))
		}
		models[i] = m
	}
	o := DefaultOptions()
	o.Catalogue = cat
	var err error
	if o.Space, err = hw.ParseSpaceWith(q.Space, cat); err != nil {
		return bad("space", err)
	}
	q.Constraints.apply(&o.Constraints)
	if err := o.Constraints.Validate(); err != nil {
		return bad("constraints", err)
	}
	if q.Search != "" {
		spec, err := search.ParseSpec(q.Search)
		if err != nil {
			return bad("search", err)
		}
		o.Search = &SearchOptions{Spec: spec, Budget: q.Budget, Seed: q.Seed}
	}
	if q.Budget < 0 {
		return bad("budget", fmt.Errorf("negative search budget %d", q.Budget))
	}
	if o.Fidelity, err = dse.ParseFidelityMode(q.Fidelity); err != nil {
		return bad("fidelity", err)
	}
	return models, o, nil
}

func (c ConstraintOverrides) apply(cons *dse.Constraints) {
	if c.MaxChipAreaMM2 != nil {
		cons.MaxChipAreaMM2 = *c.MaxChipAreaMM2
	}
	if c.MaxPowerDensityWPerMM2 != nil {
		cons.MaxPowerDensityWPerMM2 = *c.MaxPowerDensityWPerMM2
	}
	if c.LatencySlack != nil {
		cons.LatencySlack = *c.LatencySlack
	}
}

// QueryKey is the canonical encoding of a resolved query (models and o as
// returned by Resolve): two queries with equal keys are the same
// computation. It is built from what Resolve produced, not from the query's
// spelling, so equivalent spellings share a key: space case and whitespace, "" vs "analytical", a search spec with or
// without its defaults written out, and a seed or budget on an exhaustive
// query (which they cannot affect). It folds in the model content
// fingerprints in input order (selection reports Evals in that order), the
// space description (which names the space's axes for every spec
// hw.ParseSpaceWith accepts), the catalogue fingerprint, the constraints,
// the canonical search spec with its budget and seed, and the fidelity mode.
func QueryKey(models []*workload.Model, o Options) string {
	var sb strings.Builder
	for i, m := range models {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(eval.Fingerprint(m))
	}
	c := o.Constraints
	fmt.Fprintf(&sb, "|space=%s|cat=%s|cons=%g/%g/%g|fidelity=%s|search=",
		o.Space.Desc(), o.Catalogue.Fingerprint(),
		c.MaxChipAreaMM2, c.MaxPowerDensityWPerMM2, c.LatencySlack, o.Fidelity)
	if s := o.Search; s != nil {
		fmt.Fprintf(&sb, "%s|budget=%d|seed=%d", s.Spec, s.Budget, s.Seed)
	}
	return sb.String()
}
