package search

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/dse"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/workload"
)

// testSpaces returns the exhaustively verifiable spaces the search tests run
// against: the paper's 81-point grid, a generated fine subset, and the
// heterogeneous mix space (budget-filtered coordinates, so IndexOf can
// return -1).
func testSpaces(t *testing.T) []struct {
	name   string
	space  hw.DesignSpace
	models []*workload.Model
} {
	t.Helper()
	fineSub, err := hw.ParseSpace("6x6x4x4")
	if err != nil {
		t.Fatal(err)
	}
	mix, err := hw.DefaultMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name   string
		space  hw.DesignSpace
		models []*workload.Model
	}{
		{"paper", hw.PaperSpace(), []*workload.Model{workload.NewAlexNet()}},
		{"fine-subset", fineSub, []*workload.Model{workload.NewAlexNet(), workload.NewResNet18()}},
		{"mix", mix, []*workload.Model{workload.NewAlexNet(), workload.NewViTBase()}},
	}
}

// canonResult flattens the fields of a search Result that must be identical
// across worker counts into one comparable string.
func canonResult(r dse.Result) string {
	return fmt.Sprintf("point=%+v feasible=%d explored=%d space=%q evals=%d",
		r.Config.Point, r.Feasible, r.Explored, r.SpaceDesc, len(r.Evals))
}

// selectionArea recomputes the summed per-model selection area of a point —
// the quantity search minimizes — so gap comparisons are like for like.
func selectionArea(t *testing.T, ev *eval.Evaluator, models []*workload.Model, space hw.DesignSpace, pt hw.Point) float64 {
	t.Helper()
	area := 0.0
	for _, m := range models {
		c := hw.NewConfig(hw.Point{}, []*workload.Model{m})
		c.Cat = hw.CatalogueOf(space)
		c.Point = pt
		s, err := ev.EvaluateSummary(m, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		area += s.AreaMM2
	}
	return area
}

// TestSearchDeterminismAcrossWorkers pins the seed-determinism contract:
// for a fixed seed, both strategies must return byte-identical results and
// traces at 1 and 8 evaluator workers, on every test space.
func TestSearchDeterminismAcrossWorkers(t *testing.T) {
	for _, tc := range testSpaces(t) {
		n, nm := tc.space.Len(), len(tc.models)
		budget := n * nm / 4
		for _, kind := range []string{"anneal", "genetic"} {
			spec, err := ParseSpec(kind)
			if err != nil {
				t.Fatal(err)
			}
			type run struct {
				res   string
				trace Trace
			}
			var runs []run
			for _, workers := range []int{1, 8} {
				opt, err := New(spec, Options{Seed: 7, Evaluator: eval.New(eval.Options{Workers: workers})})
				if err != nil {
					t.Fatal(err)
				}
				res, tr, err := opt.Run(context.Background(), tc.models, tc.space, dse.DefaultConstraints(), budget)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", tc.name, kind, workers, err)
				}
				runs = append(runs, run{canonResult(res), tr})
			}
			if runs[0].res != runs[1].res {
				t.Errorf("%s/%s: result differs across workers\nw1: %s\nw8: %s",
					tc.name, kind, runs[0].res, runs[1].res)
			}
			if !reflect.DeepEqual(runs[0].trace, runs[1].trace) {
				t.Errorf("%s/%s: trace differs across workers\nw1: %+v\nw8: %+v",
					tc.name, kind, runs[0].trace, runs[1].trace)
			}
		}
	}
}

// TestSearchBudgetExactness pins the budget ledger: on a fresh evaluator the
// miss count after a run (scoring plus winner materialization) never exceeds
// the budget, evaluations equal unique points x models, and repeat visits
// surface as trace cache hits, not budget spend.
func TestSearchBudgetExactness(t *testing.T) {
	for _, tc := range testSpaces(t) {
		n, nm := tc.space.Len(), len(tc.models)
		budget := n * nm / 5
		for _, kind := range []string{"anneal", "genetic"} {
			spec, err := ParseSpec(kind)
			if err != nil {
				t.Fatal(err)
			}
			ev := eval.New(eval.Options{Workers: 4})
			opt, err := New(spec, Options{Seed: 3, Evaluator: ev})
			if err != nil {
				t.Fatal(err)
			}
			_, tr, err := opt.Run(context.Background(), tc.models, tc.space, dse.DefaultConstraints(), budget)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, kind, err)
			}
			stats := ev.Stats()
			if stats.Misses > uint64(budget) {
				t.Errorf("%s/%s: evaluator misses %d exceed budget %d", tc.name, kind, stats.Misses, budget)
			}
			if tr.Evaluations != tr.UniquePoints*nm {
				t.Errorf("%s/%s: Evaluations=%d != UniquePoints(%d) x models(%d)",
					tc.name, kind, tr.Evaluations, tr.UniquePoints, nm)
			}
			if tr.Evaluations > budget-nm {
				t.Errorf("%s/%s: Evaluations=%d exceed scoring budget %d", tc.name, kind, tr.Evaluations, budget-nm)
			}
			if tr.EvalsToWin <= 0 || tr.EvalsToWin > tr.Evaluations {
				t.Errorf("%s/%s: EvalsToWin=%d out of range (0, %d]", tc.name, kind, tr.EvalsToWin, tr.Evaluations)
			}
			if tr.CacheHits < 0 {
				t.Errorf("%s/%s: negative CacheHits", tc.name, kind)
			}
		}
	}
}

// TestSearchGapRegression is the optimality-gap regression gate on spaces
// where brute force is feasible: with a quarter of the exhaustive budget,
// both strategies must land within 5% of the exhaustive optimum's selection
// area (TestSearchGapAtFivePercentBudget gates the headline 1%-at-5%-budget
// criterion on the full fine and mixfine spaces).
func TestSearchGapRegression(t *testing.T) {
	for _, tc := range testSpaces(t) {
		n, nm := tc.space.Len(), len(tc.models)
		ev := eval.New(eval.Options{Workers: 8})
		exh, err := dse.ExploreSpace(tc.models, tc.space, dse.DefaultConstraints(), ev, nil)
		if err != nil {
			t.Fatal(err)
		}
		exhArea := selectionArea(t, ev, tc.models, tc.space, exh.Config.Point)
		budget := n * nm / 4
		for _, kind := range []string{"anneal", "genetic"} {
			spec, err := ParseSpec(kind)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := New(spec, Options{Seed: 11, Evaluator: ev})
			if err != nil {
				t.Fatal(err)
			}
			_, tr, err := opt.Run(context.Background(), tc.models, tc.space, dse.DefaultConstraints(), budget)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, kind, err)
			}
			gap := (tr.BestAreaMM2 - exhArea) / exhArea
			if gap > 0.05 || gap < -0.05 {
				t.Errorf("%s/%s: optimality gap %.4f exceeds ±5%% (search %.4f mm2, exhaustive %.4f mm2, %d/%d evals)",
					tc.name, kind, gap, tr.BestAreaMM2, exhArea, tr.Evaluations, n*nm)
			}
		}
	}
}

// TestSearchGapAtFivePercentBudget is the paper criterion on the full fine
// space (13 training nets) and the mixfine catalogue space (AlexNet,
// ViT-base, ResNet-18): at a 5% evaluation budget, seed 7 and a fresh engine
// per run, both strategies must land within 1% of the exhaustive optimum's
// selection area and spend at most 5% of the exhaustive evaluation count.
func TestSearchGapAtFivePercentBudget(t *testing.T) {
	const maxGap, maxEvalsShare = 0.01, 0.05
	cons := dse.DefaultConstraints()
	for _, tc := range fivePercentCases(t) {
		n, nm := tc.space.Len(), len(tc.models)
		refEv := eval.New(eval.Options{})
		exh, err := dse.ExploreSpace(tc.models, tc.space, cons, refEv, nil)
		if err != nil {
			t.Fatal(err)
		}
		exhArea := selectionArea(t, refEv, tc.models, tc.space, exh.Config.Point)
		for _, kind := range []string{"anneal", "genetic"} {
			spec, err := ParseSpec(kind)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := New(spec, Options{Seed: 7, Evaluator: eval.New(eval.Options{})})
			if err != nil {
				t.Fatal(err)
			}
			_, tr, err := opt.Run(context.Background(), tc.models, tc.space, cons, n*nm/20)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, kind, err)
			}
			gap := (tr.BestAreaMM2 - exhArea) / exhArea
			share := float64(tr.Evaluations) / float64(n*nm)
			t.Logf("%s/%s: gap %+.4f at %.2f%% of %d exhaustive evaluations", tc.name, kind, gap, 100*share, n*nm)
			if math.Abs(gap) > maxGap {
				t.Errorf("%s/%s: optimality gap %.4f exceeds %.2f (search %.4f mm2, exhaustive %.4f mm2)",
					tc.name, kind, gap, maxGap, tr.BestAreaMM2, exhArea)
			}
			if share > maxEvalsShare {
				t.Errorf("%s/%s: %d evaluations are %.2f%% of exhaustive, above %.0f%%",
					tc.name, kind, tr.Evaluations, 100*share, 100*maxEvalsShare)
			}
		}
	}
}

// TestSearchFallbackExhaustive pins the fallback contract: a budget covering
// the whole space routes to the exhaustive streaming sweep (early-exit
// enabled) and returns its exact winner with Fallback set.
func TestSearchFallbackExhaustive(t *testing.T) {
	for _, tc := range testSpaces(t) {
		n, nm := tc.space.Len(), len(tc.models)
		ev := eval.New(eval.Options{Workers: 4})
		exh, err := dse.ExploreSpace(tc.models, tc.space, dse.DefaultConstraints(), ev, nil)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ParseSpec("anneal")
		if err != nil {
			t.Fatal(err)
		}
		opt, err := New(spec, Options{Seed: 1, Evaluator: ev})
		if err != nil {
			t.Fatal(err)
		}
		res, tr, err := opt.Run(context.Background(), tc.models, tc.space, dse.DefaultConstraints(), n*nm)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tr.Fallback || tr.Strategy != "exhaustive" {
			t.Errorf("%s: expected exhaustive fallback, got %+v", tc.name, tr)
		}
		if res.Config.Point != exh.Config.Point {
			t.Errorf("%s: fallback selected %+v, exhaustive %+v", tc.name, res.Config.Point, exh.Config.Point)
		}
	}
}

// TestSearchBudgetTooSmall pins the minimum-budget error.
func TestSearchBudgetTooSmall(t *testing.T) {
	spec, err := ParseSpec("genetic")
	if err != nil {
		t.Fatal(err)
	}
	opt, err := New(spec, Options{Seed: 1, Evaluator: eval.New(eval.Options{Workers: 1})})
	if err != nil {
		t.Fatal(err)
	}
	models := []*workload.Model{workload.NewAlexNet(), workload.NewResNet18()}
	if _, _, err := opt.Run(context.Background(), models, hw.PaperSpace(), dse.DefaultConstraints(), 3); err == nil {
		t.Fatal("expected an error for a budget below the minimum")
	}
}

// fivePercentCases are the spaces the 5%-budget criterion is stated on: the
// full fine space over the 13 training nets, and the mixfine catalogue space
// over AlexNet, ViT-base and ResNet-18.
func fivePercentCases(t *testing.T) []struct {
	name   string
	space  hw.DesignSpace
	models []*workload.Model
} {
	t.Helper()
	mixfine, err := hw.FineMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name   string
		space  hw.DesignSpace
		models []*workload.Model
	}{
		{"fine", hw.FineSpace(), workload.TrainingSet()},
		{"mixfine", mixfine, []*workload.Model{workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18()}},
	}
}

// TestSearchFitnessWork gates the search coordinator on work, not time: at a
// 5% budget and seed 7 on fine and mixfine, neither strategy may compute
// fitness more than twice per unique point scored (the memo recomputes a slot
// only after the latency reference tightens), and breeding one genetic
// offspring on a seeded mixfine state must not allocate.
func TestSearchFitnessWork(t *testing.T) {
	ctx := context.Background()
	cons := dse.DefaultConstraints()
	for _, tc := range fivePercentCases(t) {
		budget := tc.space.Len() * len(tc.models) / 20
		ev := eval.New(eval.Options{})
		var gen *genetic
		for _, kind := range []string{"anneal", "genetic"} {
			spec, err := ParseSpec(kind)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := New(spec, Options{Seed: 7, Evaluator: ev})
			if err != nil {
				t.Fatal(err)
			}
			if g, ok := opt.(*genetic); ok {
				gen = g
			}
			st, tr, err := runState(ctx, opt, tc.models, tc.space, cons, budget)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, kind, err)
			}
			t.Logf("%s/%s: %d fitness computations for %d unique points", tc.name, kind, st.fitComputes, tr.UniquePoints)
			if st.fitComputes > 2*tr.UniquePoints {
				t.Errorf("%s/%s: %d fitness computations exceed 2 x %d unique points",
					tc.name, kind, st.fitComputes, tr.UniquePoints)
			}
		}
		if tc.name != "mixfine" {
			continue
		}
		st := newState(ctx, ev, tc.space, tc.models, cons, 7, budget)
		var pop []int
		for _, s := range st.visit(st.seedPoints()) {
			if s >= 0 && st.errs[s] == nil {
				pop = append(pop, s)
			}
		}
		if st.err != nil || len(pop) == 0 {
			t.Fatalf("seeding mixfine: %v (%d slots)", st.err, len(pop))
		}
		if allocs := testing.AllocsPerRun(100, func() { gen.offspring(st, pop) }); allocs != 0 {
			t.Errorf("mixfine: one genetic offspring allocates %.1f times, want 0", allocs)
		}
	}
}

// runState runs a budgeted (non-fallback) search and returns its final state
// alongside the trace, for tests that inspect the coordinator's work.
func runState(ctx context.Context, opt Optimizer, models []*workload.Model, space hw.DesignSpace,
	cons dse.Constraints, budget int) (*state, Trace, error) {
	var eng engine
	var strategy func(*state) error
	switch o := opt.(type) {
	case *annealer:
		eng, strategy = o.eng, o.anneal
	case *genetic:
		eng, strategy = o.eng, o.evolve
	}
	var st *state
	_, tr, err := eng.run(ctx, models, space, cons, budget, func(s *state) error {
		st = s
		return strategy(s)
	})
	return st, tr, err
}

// TestSearchFitnessMemo pins the memo's invalidation rule: visiting every
// point of each test space one at a time, so the latency reference tightens
// after fitness has been memoized, every scored slot's memoized fitness must
// equal a fresh computation bit for bit after each visit.
func TestSearchFitnessMemo(t *testing.T) {
	for _, tc := range testSpaces(t) {
		n, nm := tc.space.Len(), len(tc.models)
		st := newState(context.Background(), eval.New(eval.Options{}), tc.space, tc.models,
			dse.DefaultConstraints(), 1, (n+1)*nm)
		for k := 0; k < n; k++ {
			st.visit([]int{k})
			if st.err != nil {
				t.Fatalf("%s: %v", tc.name, st.err)
			}
			for s := range st.pts {
				if got, want := st.fitness(s), st.rawFitness(s); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: after point %d, slot %d memo %v, recomputed %v", tc.name, k, s, got, want)
				}
			}
		}
		if st.refGen < 3 {
			t.Errorf("%s: reference tightened %d times over the sweep; the test needs at least two", tc.name, st.refGen-1)
		}
	}
}
