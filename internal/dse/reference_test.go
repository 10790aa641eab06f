package dse

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/ppa"
	"repro/internal/workload"
)

// exploreReference is the pre-streaming eager implementation of Explore,
// preserved verbatim as the oracle for byte-identity tests: it materializes
// the full O(points x models) summary matrix and selects in two passes. Any
// change to the streaming sweep must keep ExploreSpace equal to this on every
// space that fits in memory.
func exploreReference(models []*workload.Model, space []hw.Point, cons Constraints, ev *eval.Evaluator) (Result, error) {
	if len(models) == 0 {
		return Result{}, fmt.Errorf("dse: no models")
	}
	if len(space) == 0 {
		return Result{}, fmt.Errorf("dse: empty design space")
	}
	if err := cons.Validate(); err != nil {
		return Result{}, err
	}
	if ev == nil {
		ev = eval.Shared()
	}
	tmpl := make([]hw.Config, len(models))
	for i, m := range models {
		tmpl[i] = hw.NewConfig(hw.Point{}, []*workload.Model{m})
	}
	type pointEval struct {
		sums []ppa.Summary
		area float64
		ok   bool
	}
	sums := make([]ppa.Summary, len(space)*len(models))
	pes := make([]pointEval, len(space))
	errs := make([]error, len(space))
	ev.ForEach(len(space), func(k int) {
		pe := pointEval{sums: sums[k*len(models) : (k+1)*len(models)], ok: true}
		for i, m := range models {
			c := tmpl[i]
			c.Point = space[k]
			s, err := ev.EvaluateSummary(m, c, 1)
			if err != nil {
				errs[k] = err
				return
			}
			pe.sums[i] = s
			pe.area += s.AreaMM2
			if !cons.meetsStatic(s.AreaMM2, s.PowerDensity()) {
				pe.ok = false
			}
		}
		pes[k] = pe
	})
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	bestLat := make([]float64, len(models))
	for i := range bestLat {
		bestLat[i] = math.Inf(1)
	}
	for k := range pes {
		for i := range models {
			if s := pes[k].sums[i]; cons.meetsStatic(s.AreaMM2, s.PowerDensity()) && s.LatencyS < bestLat[i] {
				bestLat[i] = s.LatencyS
			}
		}
	}
	for i, m := range models {
		if math.IsInf(bestLat[i], 1) {
			return Result{}, fmt.Errorf("dse: no space point meets area/power constraints for %s", m.Name)
		}
	}
	best := -1
	feasible := 0
	for k := range pes {
		if !pes[k].ok {
			continue
		}
		latOK := true
		for i := range models {
			if pes[k].sums[i].LatencyS > (1+cons.LatencySlack)*bestLat[i] {
				latOK = false
				break
			}
		}
		if !latOK {
			continue
		}
		feasible++
		if best < 0 || pes[k].area < pes[best].area {
			best = k
		}
	}
	if best < 0 {
		return Result{}, fmt.Errorf("dse: no feasible configuration for %d models under %+v",
			len(models), cons)
	}
	final := hw.NewConfig(space[best], models)
	evals := make([]*ppa.Eval, len(models))
	for i, m := range models {
		e, err := ev.Evaluate(m, final)
		if err != nil {
			return Result{}, err
		}
		evals[i] = e
	}
	return Result{Config: final, Evals: evals, Feasible: feasible, Explored: len(space)}, nil
}

// TestStreamingMatchesReference is the PR's central acceptance gate: over the
// paper's 81-point space the streaming sweep must return byte-identical
// Results to the eager two-pass reference at worker counts {1, 3, 8} and
// chunk sizes {1, 7, 81}, with and without the result cache.
func TestStreamingMatchesReference(t *testing.T) {
	modelSets := [][]*workload.Model{
		{workload.NewAlexNet()},
		{workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18()},
	}
	consSets := []Constraints{DefaultConstraints(), {
		MaxChipAreaMM2:         100,
		MaxPowerDensityWPerMM2: 0.8,
		LatencySlack:           PaperLatencySlack,
	}}
	space := hw.Space()
	for mi, models := range modelSets {
		for ci, cons := range consSets {
			want, err := exploreReference(models, space, cons, eval.New(eval.Options{Workers: 1}))
			if err != nil {
				t.Fatal(err)
			}
			ref := canonResult(want)
			for _, workers := range []int{1, 3, 8} {
				for _, chunk := range []int{1, 7, 81} {
					for _, cache := range []CachePolicy{CacheAlways, CacheNever} {
						got, err := ExploreSpace(models, hw.PointList(space), cons,
							eval.New(eval.Options{Workers: workers}),
							&ExploreOptions{ChunkSize: chunk, Cache: cache})
						if err != nil {
							t.Fatalf("models=%d cons=%d workers=%d chunk=%d cache=%d: %v",
								mi, ci, workers, chunk, cache, err)
						}
						if canonResult(got) != ref {
							t.Errorf("models=%d cons=%d workers=%d chunk=%d cache=%d: streaming differs from reference\n--- reference ---\n%s--- streaming ---\n%s",
								mi, ci, workers, chunk, cache, ref, canonResult(got))
						}
					}
				}
			}
		}
	}
}

// TestStreamingMatchesReferenceOnGeneratedSpace extends the oracle check to a
// generated spec (different axis values than the paper's, including points
// that fail static feasibility) swept lazily, against the reference over the
// materialized same points.
func TestStreamingMatchesReferenceOnGeneratedSpace(t *testing.T) {
	spec, err := hw.ParseSpace("4x4x3x3")
	if err != nil {
		t.Fatal(err)
	}
	models := []*workload.Model{workload.NewAlexNet(), workload.NewResNet18()}
	cons := DefaultConstraints()
	want, err := exploreReference(models, spec.Points(), cons, eval.New(eval.Options{Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		for _, chunk := range []int{0, 5} {
			got, err := ExploreSpace(models, spec, cons, eval.New(eval.Options{Workers: workers}),
				&ExploreOptions{ChunkSize: chunk})
			if err != nil {
				t.Fatal(err)
			}
			if canonResult(got) != canonResult(want) {
				t.Errorf("workers=%d chunk=%d: differs from reference", workers, chunk)
			}
		}
	}
}

// TestStreamingErrorMatchesReference checks the failure paths agree with the
// reference: impossibly tight area constraints must produce the same error.
func TestStreamingErrorMatchesReference(t *testing.T) {
	models := []*workload.Model{workload.NewAlexNet()}
	cons := Constraints{MaxChipAreaMM2: 1e-6, MaxPowerDensityWPerMM2: 0.8, LatencySlack: 1}
	_, wantErr := exploreReference(models, hw.Space(), cons, eval.New(eval.Options{Workers: 1}))
	if wantErr == nil {
		t.Fatal("reference unexpectedly feasible")
	}
	_, gotErr := ExploreSpace(models, hw.PointList(hw.Space()), cons,
		eval.New(eval.Options{Workers: 8}), &ExploreOptions{ChunkSize: 7})
	if gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Errorf("error mismatch:\nreference: %v\nstreaming: %v", wantErr, gotErr)
	}
}

// TestExploreDeduplicatesUserSpace pins the duplicate-point guard: a space
// with repeats selects the same configuration with the same feasible/explored
// counts as its deduplicated form.
func TestExploreDeduplicatesUserSpace(t *testing.T) {
	m := workload.NewAlexNet()
	space := hw.Space()
	doubled := append(append([]hw.Point{}, space...), space...)
	base, err := Explore([]*workload.Model{m}, space, DefaultConstraints(), eval.New(eval.Options{Workers: 4}))
	if err != nil {
		t.Fatal(err)
	}
	dup, err := Explore([]*workload.Model{m}, doubled, DefaultConstraints(), eval.New(eval.Options{Workers: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if canonResult(dup) != canonResult(base) {
		t.Errorf("duplicated space changed the result:\n--- unique ---\n%s--- doubled ---\n%s",
			canonResult(base), canonResult(dup))
	}
	if dup.Explored != len(space) {
		t.Errorf("Explored = %d after dedupe, want %d", dup.Explored, len(space))
	}
}

// TestStreamingByteIdentityMatrix extends the byte-identity gate to the
// sharded reduction's full determinism matrix on lazily enumerated spaces: a
// generated fine subset and the heterogeneous mix catalogue space, each swept
// at worker counts {1, 3, 8} x chunk sizes {1, 7, n} x all three cache
// policies. Every cell must reproduce the eager reference byte for byte —
// shard count, chunk boundaries and caching must be unobservable.
func TestStreamingByteIdentityMatrix(t *testing.T) {
	fineSub, err := hw.ParseSpace("5x5x3x3")
	if err != nil {
		t.Fatal(err)
	}
	mix, err := hw.DefaultMixSpec(nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	mixPts := make([]hw.Point, 0, mix.Len())
	for i := 0; i < mix.Len(); i++ {
		mixPts = append(mixPts, mix.At(i))
	}
	cases := []struct {
		name   string
		space  hw.DesignSpace
		points []hw.Point
		models []*workload.Model
	}{
		{"fine-subset", fineSub, fineSub.Points(),
			[]*workload.Model{workload.NewAlexNet(), workload.NewResNet18()}},
		{"mix", mix, mixPts,
			[]*workload.Model{workload.NewAlexNet(), workload.NewViTBase()}},
	}
	cons := DefaultConstraints()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := exploreReference(tc.models, tc.points, cons, eval.New(eval.Options{Workers: 1}))
			if err != nil {
				t.Fatal(err)
			}
			ref := canonResult(want)
			n := len(tc.points)
			for _, workers := range []int{1, 3, 8} {
				for _, chunk := range []int{1, 7, n} {
					for _, cache := range []CachePolicy{CacheAuto, CacheAlways, CacheNever} {
						got, err := ExploreSpace(tc.models, tc.space, cons,
							eval.New(eval.Options{Workers: workers}),
							&ExploreOptions{ChunkSize: chunk, Cache: cache})
						if err != nil {
							t.Fatalf("workers=%d chunk=%d cache=%d: %v", workers, chunk, cache, err)
						}
						if canonResult(got) != ref {
							t.Errorf("workers=%d chunk=%d cache=%d: streaming differs from reference\n--- reference ---\n%s--- streaming ---\n%s",
								workers, chunk, cache, ref, canonResult(got))
						}
					}
				}
			}
		})
	}
}

// TestExploreChunkLoopAllocFree pins the sharded sweep's allocation contract:
// once a warm-up pass has sized the frontier's backing arrays and the
// evaluator's plan tables, the steady-state chunk loop — scanChunk over the
// whole space — performs zero heap allocations.
func TestExploreChunkLoopAllocFree(t *testing.T) {
	models := []*workload.Model{workload.NewAlexNet(), workload.NewViTBase()}
	space := hw.PointList(hw.Space())
	cons := DefaultConstraints()
	ev := eval.New(eval.Options{Workers: 1})
	summary := func(m *workload.Model, c hw.Config) (ppa.Summary, error) {
		return ev.Plan(m).Summary(c, 1)
	}
	tmpl := make([]hw.Config, len(models))
	for i, m := range models {
		tmpl[i] = hw.NewConfig(hw.Point{}, []*workload.Model{m})
	}
	sw := newSweepState(context.Background(), space, models, tmpl, cons, summary)
	sh := newExploreShard(sw)
	scan := func() {
		for lo := 0; lo < sw.n; lo += 16 {
			hi := lo + 16
			if hi > sw.n {
				hi = sw.n
			}
			sh.scanChunk(lo, hi)
		}
	}
	scan() // warm-up: sizes the frontier backing arrays and plan caches
	if sh.err != nil {
		t.Fatal(sh.err)
	}
	avg := testing.AllocsPerRun(10, func() {
		sh.front.reset()
		scan()
	})
	if avg != 0 {
		t.Errorf("steady-state chunk loop allocates %.1f objects per sweep, want 0", avg)
	}
}

// TestExploreStatsBoundedMemory checks the streaming sweep's observable
// memory claim on the fine preset (the >= 10k-point acceptance shape): the
// sweep must bypass the result cache and the peak retained-candidate set must
// cost no more than 10% of the naive summary matrix.
func TestExploreStatsBoundedMemory(t *testing.T) {
	spec := hw.FineSpace()
	models := []*workload.Model{
		workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18(),
	}
	var stats ExploreStats
	r, err := ExploreSpace(models, spec, DefaultConstraints(),
		eval.New(eval.Options{Workers: 4}), &ExploreOptions{Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != spec.Len() || stats.Models != len(models) {
		t.Fatalf("stats = %+v, want %d points x %d models", stats, spec.Len(), len(models))
	}
	if stats.MaxRetained == 0 || stats.MaxRetained > spec.Len() {
		t.Fatalf("MaxRetained = %d out of range", stats.MaxRetained)
	}
	if ratio := float64(stats.RetainedBytes) / float64(stats.NaiveBytes); ratio > 0.10 {
		t.Errorf("retained memory %.1f%% of naive matrix, want <= 10%% (%+v)", 100*ratio, stats)
	}
	if r.SpaceDesc != spec.Desc() {
		t.Errorf("SpaceDesc = %q, want %q", r.SpaceDesc, spec.Desc())
	}
	if !stats.CacheBypassed {
		t.Errorf("expected cache bypass for %d-entry sweep (limit %d)", spec.Len()*len(models), cacheAutoLimit)
	}
}
