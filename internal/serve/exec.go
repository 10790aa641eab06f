package serve

import (
	"context"
	"fmt"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/workload"
)

// Execution: the mapping from an admitted job to the library call serving
// it. Every path runs on the manager's process-lifetime evaluator, so
// repeated and overlapping requests share one two-level cache; every path
// threads the job context so DELETE/disconnect/shutdown cancellation is
// prompt (chunk-granular inside the streaming sweep).

// exploreExec builds the exec closure for a resolved explore query.
func exploreExec(models []*workload.Model, o core.Options) func(ctx context.Context, j *Job) (any, error) {
	return func(ctx context.Context, j *Job) (any, error) {
		res, tr, err := core.Explore(ctx, models, o, j.publish)
		if err != nil {
			return nil, err
		}
		return ExploreResultOf(res, tr), nil
	}
}

// sweepExec builds the exec closure for a validated sweep over its resolved
// query.
func sweepExec(req *SweepRequest, models []*workload.Model, o core.Options) func(ctx context.Context, _ *Job) (any, error) {
	return func(ctx context.Context, _ *Job) (any, error) {
		o.Ctx = ctx
		if req.Kind == "tau" {
			pts, err := core.SweepTau(models, o, req.Values)
			if err != nil {
				return nil, err
			}
			out := SweepResult{Kind: "tau"}
			for _, p := range pts {
				out.Tau = append(out.Tau, TauPoint{
					Tau: p.Tau, Subsets: p.Subsets,
					MeanBenefit: p.MeanBenefit, MaxSubsetSize: p.MaxSubsetSize,
				})
			}
			return out, nil
		}
		pts, err := core.SweepSlack(models[0], o, req.Values)
		if err != nil {
			return nil, err
		}
		out := SweepResult{Kind: "slack"}
		for _, p := range pts {
			out.Slack = append(out.Slack, SlackPoint{
				Slack: p.Slack, AreaMM2: p.AreaMM2,
				LatencyMS: p.LatencyMS, Feasible: p.Feasible,
			})
		}
		return out, nil
	}
}

// selfcheckExec builds the exec closure for a selfcheck request. The check
// battery has no internal cancellation points; it is bounded (~seconds) and
// runs on its own engines by design, so a cancelled job simply discards the
// report on return.
func (m *Manager) selfcheckExec(req *SelfcheckRequest) func(ctx context.Context, _ *Job) (any, error) {
	return func(ctx context.Context, _ *Job) (any, error) {
		rep := check.Run(check.Options{Seed: req.Seed, Catalogue: m.catalogueOption()})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out := SelfcheckResult{OK: rep.OK(), Checks: rep.Checks(), Failed: rep.Failed()}
		for _, v := range rep.Violations() {
			out.Violations = append(out.Violations, v.String())
			if len(out.Violations) >= 32 {
				break
			}
		}
		return out, nil
	}
}

// catalogueOption returns the catalogue to hand to check.Run: nil when the
// server runs the built-in default (check treats nil as default and also
// exercises the legacy-constant differential).
func (m *Manager) catalogueOption() *hw.Catalogue {
	if m.cat == hw.Default() {
		return nil
	}
	return m.cat
}

// resolve resolves a request's query against the server catalogue and binds
// it to the shared evaluator — once per request, at submission.
func (m *Manager) resolve(q core.Query) ([]*workload.Model, core.Options, error) {
	models, o, err := q.Resolve(m.cat)
	if err != nil {
		return nil, core.Options{}, fmt.Errorf("serve: %w", err)
	}
	o.Evaluator = m.ev
	return models, o, nil
}

// SubmitExplore resolves, keys and submits an explore job. The coalescing
// key is the resolved query's canonical encoding (core.QueryKey).
func (m *Manager) SubmitExplore(req *ExploreRequest, detached bool) (*Job, bool, error) {
	models, o, err := m.resolve(req.query())
	if err != nil {
		return nil, false, err
	}
	return m.Submit(KindExplore, KindExplore+"|"+core.QueryKey(models, o), detached, exploreExec(models, o))
}

// SubmitSweep validates, resolves, keys and submits a sweep job.
func (m *Manager) SubmitSweep(req *SweepRequest, detached bool) (*Job, bool, error) {
	if err := validateSweep(req); err != nil {
		return nil, false, err
	}
	models, o, err := m.resolve(req.query())
	if err != nil {
		return nil, false, err
	}
	key := fmt.Sprintf("%s|kind=%s|values=%v|%s", KindSweep, req.Kind, req.Values, core.QueryKey(models, o))
	return m.Submit(KindSweep, key, detached, sweepExec(req, models, o))
}

// SubmitSelfcheck submits a selfcheck job.
func (m *Manager) SubmitSelfcheck(req *SelfcheckRequest, detached bool) (*Job, bool, error) {
	return m.Submit(KindSelfcheck, selfcheckKey(req, m.cat), detached, m.selfcheckExec(req))
}
