package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/jaccard"
	"repro/internal/ppa"
	"repro/internal/workload"
)

// probeSamples is how many seeded design points each kernel timing covers.
const probeSamples = 64

// layerProbe runs after a traced workload. It times kernels and single calls
// directly on seeded samples (ppa, eval hits, core.BuildDesign,
// jaccard.Partition), and measures every layer the workload does not call
// itself on small paper-space inputs, so each traced run reports every
// per-layer metric. A workload's own measurement of a metric takes
// precedence (setLayer keeps the first value).
func layerProbe(b *bench, exp *expected) error {
	if err := b.kernelProbe(); err != nil {
		return err
	}
	if err := b.callProbe(); err != nil {
		return err
	}
	if _, ok := b.layer["dse.scan_s"]; !ok {
		if err := b.explorePaperProbe(exp); err != nil {
			return err
		}
	}
	if _, ok := b.layer["core.train_s"]; !ok {
		env, err := setupPipeline()
		if err != nil {
			return err
		}
		text, run, err := b.pipelineIteration(env)
		if err == nil && digest(text) != exp.PipelineSHA256 {
			err = fmt.Errorf("probe pipeline output digest %s, want %s", digest(text), exp.PipelineSHA256)
		}
		b.op(err)
		b.setLayer("core.train_s", "s", run.train.Seconds())
		b.setLayer("core.test_s", "s", run.test.Seconds())
		b.setLayer("report.render_s", "s", run.render.Seconds())
	}
	if _, ok := b.layer["serve.accepted"]; !ok {
		return b.serveProbe()
	}
	return nil
}

// metricName turns a network name into a metric-name suffix.
func metricName(s string) string { return strings.ReplaceAll(s, " ", "_") }

// timeCalls returns the median over five passes of the mean ns per call of
// fn over n calls.
func timeCalls(n int, fn func(i int) error) (float64, error) {
	var passes []float64
	for p := 0; p < 5; p++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		passes = append(passes, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(passes), nil
}

// kernelProbe times ModelPlan.Summary directly on a seeded sample of fine
// points for each of the 19 nets and on mixfine points for the three mix
// nets: the kernel cost per model-point.
func (b *bench) kernelProbe() error {
	rng := rand.New(rand.NewSource(b.seed))
	fine := hw.FineSpace()
	mixfine, err := hw.FineMixSpec(hw.Default()).Build()
	if err != nil {
		return err
	}
	sample := func(space hw.DesignSpace) []hw.Point {
		pts := make([]hw.Point, probeSamples)
		for i := range pts {
			pts[i] = space.At(rng.Intn(space.Len()))
		}
		return pts
	}
	finePts, mixPts := sample(fine), sample(mixfine)
	req := b.nextReq()
	root := b.tr.begin("bench.kernel_probe", -1, req)
	defer b.tr.end(root)
	var planNs, batchNs []float64
	probe := func(prefix string, m *workload.Model, pts []hw.Point, cat *hw.Catalogue) error {
		cfgs := make([]hw.Config, len(pts))
		for i, p := range pts {
			cfgs[i] = hw.NewConfig(p, []*workload.Model{m})
			cfgs[i].Cat = cat
		}
		sp := b.tr.begin("ppa.NewModelPlan", root, req)
		start := time.Now()
		plan := ppa.NewModelPlan(m)
		planNs = append(planNs, float64(time.Since(start).Nanoseconds()))
		b.tr.end(sp)
		sp = b.tr.begin("ppa.Summary", root, req)
		ns, err := timeCalls(len(cfgs), func(i int) error { _, err := plan.Summary(cfgs[i], 1); return err })
		b.tr.end(sp)
		if err != nil {
			return fmt.Errorf("kernel probe %s: %w", m.Name, err)
		}
		b.setLayer(prefix+metricName(m.Name), "ns", ns)
		sp = b.tr.begin("ppa.EvaluateBatch", root, req)
		ns, err = timeCalls(8, func(i int) error { _, err := plan.EvaluateBatch(cfgs[i], 1); return err })
		b.tr.end(sp)
		batchNs = append(batchNs, ns)
		return err
	}
	for _, name := range workload.Names() {
		m, err := workload.ByName(name)
		if err != nil {
			return err
		}
		if err := probe("ppa.summary_ns.", m, finePts, nil); err != nil {
			return err
		}
	}
	for _, m := range []*workload.Model{workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18()} {
		if err := probe("ppa.mix_summary_ns.", m, mixPts, mixfine.Catalogue()); err != nil {
			return err
		}
	}
	b.setLayer("ppa.plan_ns", "ns", median(planNs))
	b.setLayer("ppa.evaluate_batch_ns", "ns", median(batchNs))
	return nil
}

// callProbe times an eval cache hit, core.BuildDesign and jaccard.Partition
// on the paper space and the 13 training nets.
func (b *bench) callProbe() error {
	req := b.nextReq()
	root := b.tr.begin("bench.call_probe", -1, req)
	defer b.tr.end(root)
	train := workload.TrainingSet()
	paper := hw.PaperSpace()
	ev := eval.New(eval.Options{Workers: 1})
	cfgs := make([]hw.Config, paper.Len())
	m := train[0]
	for i := range cfgs {
		cfgs[i] = hw.NewConfig(paper.At(i), []*workload.Model{m})
		if _, err := ev.EvaluateSummary(m, cfgs[i], 1); err != nil {
			return err
		}
	}
	sp := b.tr.begin("eval.EvaluateSummary", root, req)
	ns, err := timeCalls(len(cfgs), func(i int) error { _, err := ev.EvaluateSummary(m, cfgs[i], 1); return err })
	b.tr.end(sp)
	if err != nil {
		return err
	}
	b.setLayer("eval.summary_hit_ns", "ns", ns)

	o := core.DefaultOptions()
	o.Evaluator = ev
	results := make([]dse.Result, len(train))
	for i, m := range train {
		if results[i], err = dse.ExploreSpace([]*workload.Model{m}, paper, o.Constraints, ev, nil); err != nil {
			return err
		}
	}
	sp = b.tr.begin("core.BuildDesign", root, req)
	ns, err = timeCalls(len(train), func(i int) error {
		_, err := o.BuildDesign("probe:"+train[i].Name, results[i])
		return err
	})
	b.tr.end(sp)
	if err != nil {
		return err
	}
	b.setLayer("core.build_design_ns", "ns", ns)

	profiles := make([]jaccard.Profile, len(train))
	for i, m := range train {
		profiles[i] = jaccard.ProfileOfModel(m)
	}
	sp = b.tr.begin("jaccard.Partition", root, req)
	ns, _ = timeCalls(20, func(int) error { jaccard.Partition(profiles, o.Similarity); return nil })
	b.tr.end(sp)
	b.setLayer("jaccard.partition_ns", "ns", ns)
	return nil
}

// explorePaperProbe measures dse, fidelity and search on the paper space for
// workloads that do not call them directly: an analytical and a staged
// explore of the 13 training nets, and one budgeted anneal search.
func (b *bench) explorePaperProbe(exp *expected) error {
	env, err := setupExplore()
	if err != nil {
		return err
	}
	runs := make(map[string]queryRun)
	for _, name := range probeQueries {
		got, run, err := b.exploreQuery(env.queries[name], env)
		if err == nil {
			err = exp.Queries[name].check(name, got)
		}
		b.op(err)
		runs[name] = run
	}
	ana, staged := runs["paper"], runs["paper_staged"]
	b.setLayer("dse.scan_s", "s", ana.scan.Seconds())
	b.setLayer("dse.post_scan_s", "s", ana.postScan.Seconds())
	setDSELayer(b, ana)
	b.setLayer("fidelity.refine_s", "s", (staged.postScan - ana.postScan).Seconds())
	b.setLayer("fidelity.refined_points", "count", float64(staged.stats.RefinedPoints))
	b.setLayer("fidelity.thermal_rejected", "count", float64(staged.stats.ThermalRejected))

	q := env.queries["paper"]
	s := searchQuery{strategy: "anneal", exact: "paper", budget: q.space.Len() * len(q.models) / 20}
	tr, st, gap, err := b.searchRun(s, b.seed, env, exp)
	b.op(err)
	b.setLayer("search.evaluations", "count", float64(tr.Evaluations))
	b.setLayer("search.unique_points", "count", float64(tr.UniquePoints))
	b.setLayer("search.cache_hits", "count", float64(tr.CacheHits))
	b.setLayer("search.evals_to_win", "count", float64(tr.EvalsToWin))
	b.setLayer("search.gap", "ratio", gap)
	setEvalLayer(b, st)
	return nil
}

// serveProbe sends two seconds of warm-up-rate traffic to a fresh in-process
// claired for workloads that do not serve.
func (b *bench) serveProbe() error {
	gen, err := b.newTraffic()
	if err != nil {
		return err
	}
	env, err := b.startServe(gen)
	if err != nil {
		return err
	}
	defer env.close()
	b.checkServe(env, []*phase{b.runPhase(env, gen.schedule(warmRate, 2*time.Second), 0)})
	return nil
}
