package main

import (
	"reflect"
	"testing"

	"repro/internal/dse"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/workload"
)

// TestCountingSpaceIsTransparent pins that the traced run's counting wrapper
// changes nothing the library computes: wrapped and bare explores return the
// same winner, Feasible, Explored and ExploreStats on the paper, fine and
// mixfine spaces, and the wrapper counts 2n+1 visits on a cache-bypassed
// analytical explore.
func TestCountingSpaceIsTransparent(t *testing.T) {
	mixfine, err := hw.FineMixSpec(hw.Default()).Build()
	if err != nil {
		t.Fatal(err)
	}
	train := workload.TrainingSet()
	mix := []*workload.Model{workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18()}
	for _, tc := range []struct {
		name   string
		space  hw.DesignSpace
		models []*workload.Model
	}{
		{"paper", hw.PaperSpace(), train},
		{"fine", hw.FineSpace(), train[:3]},
		{"mixfine", mixfine, mix},
	} {
		t.Run(tc.name, func(t *testing.T) {
			explore := func(space hw.DesignSpace) (dse.Result, dse.ExploreStats) {
				var st dse.ExploreStats
				// One worker: MaxRetained sums per-shard peaks, which depend on
				// how chunks land on shards when several workers race.
				ev := eval.New(eval.Options{Workers: 1})
				res, err := dse.ExploreSpace(tc.models, space, dse.DefaultConstraints(), ev, &dse.ExploreOptions{Stats: &st})
				if err != nil {
					t.Fatal(err)
				}
				return res, st
			}
			bare, bareStats := explore(tc.space)
			cs, err := countPoints(tc.space)
			if err != nil {
				t.Fatal(err)
			}
			wrapped, wrappedStats := explore(cs)
			if bare.Config.Point != wrapped.Config.Point || bare.Feasible != wrapped.Feasible ||
				bare.Explored != wrapped.Explored || bare.SpaceDesc != wrapped.SpaceDesc {
				t.Fatalf("wrapped explore differs: winner %v/%v feasible %d/%d explored %d/%d",
					wrapped.Config.Point, bare.Config.Point, wrapped.Feasible, bare.Feasible, wrapped.Explored, bare.Explored)
			}
			if !reflect.DeepEqual(bareStats, wrappedStats) {
				t.Fatalf("wrapped stats %+v, bare %+v", wrappedStats, bareStats)
			}
			if n := int64(tc.space.Len()); bareStats.CacheBypassed && cs.visits.Load() != 2*n+1 {
				t.Fatalf("visited %d points, want 2n+1 = %d", cs.visits.Load(), 2*n+1)
			}
		})
	}
}

// TestCountPointsRefusesPartialSpaces pins that the wrapper will not hide an
// optional view: a plain point list has none, so it is refused.
func TestCountPointsRefusesPartialSpaces(t *testing.T) {
	if _, err := countPoints(hw.PointList(hw.Space())); err == nil {
		t.Fatal("countPoints accepted a space without coordinate and corner views")
	}
}

// TestTail pins the tail rule: the highest candidate percentile with at least
// ten samples beyond it, else the maximum.
func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, label := tail(xs); v != 990 || label != "p99" {
		t.Fatalf("tail of 1..1000 = %v %s, want 990 p99", v, label)
	}
	if v, label := tail(xs[:200]); v != 180 || label != "p90" {
		t.Fatalf("tail of 1..200 = %v %s, want 180 p90", v, label)
	}
	if v, label := tail(xs[:8]); v != 8 || label != "max" {
		t.Fatalf("tail of 1..8 = %v %s, want 8 max", v, label)
	}
}

// TestSelfTimes pins that a parent's self time excludes the union of its
// children's intervals, overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "bench.query", Start: 0, End: 100, Parent: -1},
		{Name: "dse.scan", Start: 10, End: 50, Parent: 0},
		{Name: "dse.scan", Start: 30, End: 60, Parent: 0},
		{Name: "dse.post_scan", Start: 60, End: 70, Parent: 0},
	}
	self := selfTimes(spans)
	if got := self["bench"] * 1e9; got < 39.5 || got > 40.5 {
		t.Fatalf("bench self time %v ns, want 40", got)
	}
	if got := self["dse"] * 1e9; got < 79.5 || got > 80.5 {
		t.Fatalf("dse self time %v ns, want 80", got)
	}
}
