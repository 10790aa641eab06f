package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/search"
	"repro/internal/workload"
)

// exploreQueries are the explore workload's exhaustive queries, in the order
// a round runs them; probeQueries are the paper-space queries the layer probe
// runs for workloads that do not explore directly.
var (
	exploreQueries = []string{"fine", "mixfine", "staged"}
	probeQueries   = []string{"paper", "paper_staged"}
)

// exploreQuery is one exhaustive design-space exploration.
type exploreQuery struct {
	name   string
	models []*workload.Model
	space  hw.DesignSpace
	fo     *dse.FidelityOptions
}

// searchQuery is one budgeted search; exact names the exhaustive query whose
// winner it must reach.
type searchQuery struct {
	strategy, exact string
	budget          int
}

// exploreEnv is the explore workload's set-up.
type exploreEnv struct {
	queries       map[string]exploreQuery
	searches      []searchQuery
	cons          dse.Constraints
	buildS, hwS   float64
	pointsPerPass int
}

// setupExplore builds the 13 training nets, the three mixfine nets, the fine
// and mixfine spaces and the staged-fidelity parameters.
func setupExplore() (*exploreEnv, error) {
	start := time.Now()
	train := workload.TrainingSet()
	mix := []*workload.Model{workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18()}
	built := time.Now()
	fine, paper := hw.FineSpace(), hw.PaperSpace()
	mixfine, err := hw.FineMixSpec(hw.Default()).Build()
	if err != nil {
		return nil, err
	}
	staged := &dse.FidelityOptions{Mode: dse.FidelityStaged, Params: core.DefaultOptions().FidelityParams()}
	env := &exploreEnv{
		cons:   dse.DefaultConstraints(),
		buildS: built.Sub(start).Seconds(),
		hwS:    time.Since(built).Seconds(),
		queries: map[string]exploreQuery{
			"fine":         {name: "fine", models: train, space: fine},
			"mixfine":      {name: "mixfine", models: mix, space: mixfine},
			"staged":       {name: "staged", models: train, space: fine, fo: staged},
			"paper":        {name: "paper", models: train, space: paper},
			"paper_staged": {name: "paper_staged", models: train, space: paper, fo: staged},
		},
	}
	for _, sp := range []string{"fine", "mixfine"} {
		q := env.queries[sp]
		budget := q.space.Len() * len(q.models) / 20 // 5% of the exhaustive evaluations
		for _, strategy := range []string{"anneal", "genetic"} {
			env.searches = append(env.searches, searchQuery{strategy: strategy, exact: sp, budget: budget})
		}
	}
	for _, name := range exploreQueries {
		q := env.queries[name]
		env.pointsPerPass += q.space.Len() * len(q.models)
	}
	return env, nil
}

// queryRun is what one explore query cost and did.
type queryRun struct {
	point                hw.Point
	wall, scan, postScan time.Duration
	stats                dse.ExploreStats
	visits               int64
	evals                eval.Stats
}

// exploreQuery runs q on a cold engine. Traced runs wrap the space to count
// visited points, take the sweep's statistics and time the scan as the
// interval up to the last progress callback.
func (b *bench) exploreQuery(q exploreQuery, env *exploreEnv) (queryExpect, queryRun, error) {
	var run queryRun
	req := b.nextReq()
	root := b.tr.begin("bench.query."+q.name, -1, req)
	defer b.tr.end(root)
	ev := eval.New(eval.Options{Workers: b.nproc})
	space := q.space
	var opts *dse.ExploreOptions
	if q.fo != nil {
		opts = &dse.ExploreOptions{Fidelity: q.fo}
	}
	var cs *countingSpace
	var lastProgress atomic.Int64
	start := time.Now()
	if b.tr != nil {
		var err error
		if cs, err = countPoints(space); err != nil {
			return queryExpect{}, run, err
		}
		space = cs
		opts = &dse.ExploreOptions{Fidelity: q.fo, Stats: &run.stats, Progress: func(done, total int) {
			now := int64(time.Since(start))
			for {
				old := lastProgress.Load()
				if now <= old || lastProgress.CompareAndSwap(old, now) {
					return
				}
			}
		}}
	}
	sp := b.tr.begin("dse.ExploreSpace", root, req)
	res, err := dse.ExploreSpace(q.models, space, env.cons, ev, opts)
	b.tr.end(sp)
	run.wall = time.Since(start)
	if err != nil {
		return queryExpect{}, run, fmt.Errorf("%s: %w", q.name, err)
	}
	if b.tr != nil {
		run.scan = time.Duration(lastProgress.Load())
		run.postScan = run.wall - run.scan
		run.visits = cs.visits.Load()
		b.tr.add("dse.scan", sp, req, start, start.Add(run.scan))
		b.tr.add("dse.post_scan", sp, req, start.Add(run.scan), start.Add(run.wall))
	}
	run.evals = ev.Stats()
	run.point = res.Config.Point
	got := queryExpect{Point: res.Config.Point.String(), Feasible: res.Feasible, Explored: res.Explored}
	if res.Refined != nil {
		got.RefinedPoints = res.Refined.Refined
	}
	return got, run, nil
}

// selectionArea is a point's summed per-model area, the quantity search
// minimizes, so gaps compare like for like.
func selectionArea(ev *eval.Evaluator, models []*workload.Model, space hw.DesignSpace, pt hw.Point) (float64, error) {
	area := 0.0
	for _, m := range models {
		c := hw.NewConfig(pt, []*workload.Model{m})
		c.Cat = hw.CatalogueOf(space)
		s, err := ev.EvaluateSummary(m, c, 1)
		if err != nil {
			return 0, err
		}
		area += s.AreaMM2
	}
	return area, nil
}

// searchRun runs one budgeted search on a cold engine. It fails when the
// search spends more than its budget or beats the exhaustive winner (which
// would make one of the two wrong), and returns the optimality gap: a
// heuristic search need not reach the exhaustive winner at every seed.
func (b *bench) searchRun(s searchQuery, seed int64, env *exploreEnv, exp *expected) (search.Trace, eval.Stats, float64, error) {
	q := env.queries[s.exact]
	req := b.nextReq()
	root := b.tr.begin("bench.search."+s.strategy+"."+s.exact, -1, req)
	defer b.tr.end(root)
	ev := eval.New(eval.Options{Workers: b.nproc})
	spec, err := search.ParseSpec(s.strategy)
	if err != nil {
		return search.Trace{}, eval.Stats{}, 0, err
	}
	opt, err := search.New(spec, search.Options{Seed: seed, Evaluator: ev})
	if err != nil {
		return search.Trace{}, eval.Stats{}, 0, err
	}
	sp := b.tr.begin("search.Run", root, req)
	_, tr, err := opt.Run(context.Background(), q.models, q.space, env.cons, s.budget)
	b.tr.end(sp)
	if err != nil {
		return tr, ev.Stats(), 0, fmt.Errorf("search %s/%s seed %d: %w", s.strategy, s.exact, seed, err)
	}
	if tr.Evaluations > s.budget {
		return tr, ev.Stats(), 0, fmt.Errorf("search %s/%s seed %d: %d evaluations over budget %d",
			s.strategy, s.exact, seed, tr.Evaluations, s.budget)
	}
	want := exp.Queries[s.exact].SelectionAreaMM2
	gap := (tr.BestAreaMM2 - want) / want
	if gap < -1e-12 {
		return tr, ev.Stats(), gap, fmt.Errorf("search %s/%s seed %d: area %.6f mm2 beats the exhaustive winner's %.6f",
			s.strategy, s.exact, seed, tr.BestAreaMM2, want)
	}
	return tr, ev.Stats(), gap, nil
}

// runExplore is the explore workload: a closed loop of rounds, each running
// the three exhaustive queries and the four budgeted searches back to back,
// every one on a cold engine. The seed picks the search seeds. The CPU cost
// of a round is the sum of each query kind's median, so one slow sample of
// one kind does not move the whole round.
func runExplore(b *bench, exp *expected) (e2e, error) {
	env, setupS, err := timeSetup(setupExplore, nil)
	if err != nil {
		return e2e{}, err
	}
	b.setLayer("workload.build_s", "s", env.buildS)
	b.setLayer("hw.space_build_s", "s", env.hwS)

	var rounds []float64
	wall, cpu, fair := make(map[string][]float64), make(map[string][]float64), make(map[string][]float64)
	var fineScan, finePost, stagedPost []float64
	var fine, staged queryRun
	var round int64
	deadline := time.Now().Add(b.dur)
	for len(rounds) == 0 || time.Now().Before(deadline) {
		start := time.Now()
		var evals eval.Stats
		for _, name := range exploreQueries {
			// Each query starts from a collected heap, so its CPU time does
			// not include marking an earlier query's garbage.
			runtime.GC()
			c, host := cpuTime(), readHostTicks()
			got, run, err := b.exploreQuery(env.queries[name], env)
			cpu[name] = append(cpu[name], float64(cpuTime()-c)/1e6)
			fair[name] = append(fair[name], unstolen(run.wall, host, readHostTicks()))
			if err == nil {
				err = exp.Queries[name].check(name, got)
			}
			b.op(err)
			wall[name] = append(wall[name], run.wall.Seconds())
			addStats(&evals, run.evals)
			switch name {
			case "fine":
				fine = run
				fineScan = append(fineScan, run.scan.Seconds())
				finePost = append(finePost, run.postScan.Seconds())
			case "staged":
				staged = run
				stagedPost = append(stagedPost, run.postScan.Seconds())
			}
		}
		runtime.GC()
		searchStart, c := time.Now(), cpuTime()
		var sum search.Trace
		maxGap := 0.0
		for i, s := range env.searches {
			tr, st, gap, err := b.searchRun(s, b.seed*1000+round*int64(len(env.searches))+int64(i), env, exp)
			b.op(err)
			maxGap = max(maxGap, gap)
			addStats(&evals, st)
			sum.Evaluations += tr.Evaluations
			sum.UniquePoints += tr.UniquePoints
			sum.CacheHits += tr.CacheHits
			sum.EvalsToWin += tr.EvalsToWin
		}
		cpu["search"] = append(cpu["search"], float64(cpuTime()-c)/1e6)
		wall["search"] = append(wall["search"], time.Since(searchStart).Seconds())
		rounds = append(rounds, time.Since(start).Seconds()*1000)
		round++
		if b.tr != nil && round == 1 {
			b.setLayer("search.evaluations", "count", float64(sum.Evaluations))
			b.setLayer("search.unique_points", "count", float64(sum.UniquePoints))
			b.setLayer("search.cache_hits", "count", float64(sum.CacheHits))
			b.setLayer("search.evals_to_win", "count", float64(sum.EvalsToWin))
			b.setLayer("search.gap", "ratio", maxGap)
			setEvalLayer(b, evals)
		}
	}

	if b.tr != nil {
		b.setLayer("dse.scan_s", "s", median(fineScan))
		b.setLayer("dse.post_scan_s", "s", median(finePost))
		setDSELayer(b, fine)
		b.setLayer("fidelity.refine_s", "s", median(stagedPost)-median(finePost))
		b.setLayer("fidelity.refined_points", "count", float64(staged.stats.RefinedPoints))
		b.setLayer("fidelity.thermal_rejected", "count", float64(staged.stats.ThermalRejected))
	}
	exhaustiveMS, exhaustiveS := 0.0, 0.0
	for _, name := range exploreQueries {
		exhaustiveMS += median(cpu[name])
		exhaustiveS += median(fair[name])
	}
	p50 := median(rounds)
	tl, label := tail(rounds)
	info("explore: %d rounds; round p50 %.1f ms, %s %.1f ms", len(rounds), p50, label, tl)
	info("explore_fine_s %.4f s, explore_mixfine_s %.4f s, explore_staged_s %.4f s, search_s %.4f s (wall medians)",
		median(wall["fine"]), median(wall["mixfine"]), median(wall["staged"]), median(wall["search"]))
	info("CPU medians: fine %.1f ms, mixfine %.1f ms, staged %.1f ms, search set %.1f ms",
		median(cpu["fine"]), median(cpu["mixfine"]), median(cpu["staged"]), median(cpu["search"]))
	info("wall medians with host steal removed: fine %.4f s, mixfine %.4f s, staged %.4f s",
		median(fair["fine"]), median(fair["mixfine"]), median(fair["staged"]))
	return e2e{
		setupS:     setupS,
		cpuMS:      exhaustiveMS + median(cpu["search"]),
		throughput: float64(env.pointsPerPass) / exhaustiveS,
		wallP50MS:  p50,
		wallTailMS: tl,
	}, nil
}

// addStats sums cache counters across engines.
func addStats(dst *eval.Stats, s eval.Stats) {
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.Entries += s.Entries
}

// setEvalLayer reports the eval cache counters of one round or iteration.
func setEvalLayer(b *bench, s eval.Stats) {
	b.setLayer("eval.hits", "count", float64(s.Hits))
	b.setLayer("eval.misses", "count", float64(s.Misses))
	b.setLayer("eval.hit_ratio", "ratio", s.HitRate())
	b.setLayer("eval.entries", "count", float64(s.Entries))
}

// setDSELayer reports one traced explore's sweep counters.
func setDSELayer(b *bench, r queryRun) {
	b.setLayer("dse.points_visited", "count", float64(r.visits))
	b.setLayer("dse.retained", "count", float64(r.stats.Retained))
	b.setLayer("dse.max_retained", "count", float64(r.stats.MaxRetained))
	b.setLayer("dse.retained_bytes", "bytes", float64(r.stats.RetainedBytes))
}
