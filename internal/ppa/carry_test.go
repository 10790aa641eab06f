package ppa

import (
	"math/rand"
	"testing"

	"repro/internal/hw"
	"repro/internal/workload"
)

// carryStep is one call of a carry walk: a point evaluated under a
// precision, a catalogue and a batch size.
type carryStep struct {
	pt    hw.Point
	prec  hw.Precision
	cat   *hw.Catalogue
	batch int
}

func mustBuildMix(t testing.TB, spec hw.MixSpec) hw.MixSpace {
	t.Helper()
	sp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// poolFirst is a small synthetic model whose shape classes come in the
// reverse of the usual order (pooling, activation, engine, compute), so a
// carry switching to it from a real network resumes no sum the other plan
// left behind.
func poolFirst() *workload.Model {
	return &workload.Model{Name: "PoolFirst", Class: "synthetic", Layers: []workload.Layer{
		{Kind: workload.MaxPool, Name: "pool", IFMX: 8, IFMY: 8, NIFM: 32, OFMX: 4, OFMY: 4, NOFM: 32, KX: 2, KY: 2, Stride: 2},
		{Kind: workload.GELU, Name: "act", OFMX: 4, OFMY: 4, NOFM: 32},
		{Kind: workload.Flatten, Name: "flat", OFMX: 512},
		{Kind: workload.Linear, Name: "fc", IFMX: 1, NIFM: 512, OFMX: 1, NOFM: 10},
		{Kind: workload.GELU, Name: "act2", OFMX: 1, NOFM: 10},
	}}
}

// carryWalk builds the differential test's point sequence. It concatenates
// four segments:
//   - the fine space in row-major order (the sweep order) under the defaults;
//   - a seeded permutation of the fine space that switches precision, batch
//     and catalogue mid-walk at coprime periods;
//   - runs of consecutive mix points (default mixfine and the 7 nm
//     catalogue's mix preset) interleaved with short runs of homogeneous
//     points;
//   - sampled fine and mixfine points, each held while a Gray code steps
//     through every (precision, catalogue, batch) combination, so some
//     consecutive steps differ in exactly one key field.
func carryWalk(t testing.TB) []carryStep {
	t.Helper()
	def := hw.Default()
	mobile, err := hw.LoadCatalogue("../../examples/catalogue/mobile-7nm.json")
	if err != nil {
		t.Fatal(err)
	}
	fine := hw.FineSpace()
	var walk []carryStep
	for i := 0; i < fine.Len(); i++ {
		walk = append(walk, carryStep{pt: fine.At(i), cat: def, batch: 1})
	}
	precs := []hw.Precision{hw.Int8, hw.Int16}
	cats := []*hw.Catalogue{def, mobile}
	batches := []int{1, 4}
	for i, k := range rand.New(rand.NewSource(16)).Perm(fine.Len()) {
		walk = append(walk, carryStep{pt: fine.At(k),
			prec: precs[i/701%2], cat: cats[i/1009%2], batch: batches[i/1511%2]})
	}
	mixes := []struct {
		space hw.MixSpace
		cat   *hw.Catalogue
	}{
		{mustBuildMix(t, hw.FineMixSpec(def)), def},
		{mustBuildMix(t, hw.DefaultMixSpec(mobile)), mobile},
	}
	for r := 0; r < 48; r++ {
		ms := mixes[r%2]
		// A run of 24 consecutive mix points crosses NAct and NPool steps
		// inside one mix and, at a block end, a mix change.
		base := (r * 7919) % (ms.space.Len() - 24)
		for i := base; i < base+24; i++ {
			walk = append(walk, carryStep{pt: ms.space.At(i),
				prec: precs[r/3%2], cat: ms.cat, batch: batches[r/5%2]})
		}
		for i := 0; i < 6; i++ {
			walk = append(walk, carryStep{pt: fine.At((r*389 + i) % fine.Len()),
				prec: precs[r/3%2], cat: cats[r/7%2], batch: batches[r/5%2]})
		}
	}
	gray := [...]int{0, 1, 3, 2, 6, 7, 5, 4}
	hold := func(pt hw.Point) {
		for _, g := range gray {
			walk = append(walk, carryStep{pt: pt, prec: precs[g&1], cat: cats[g>>1&1], batch: batches[g>>2]})
		}
	}
	for i := 0; i < fine.Len(); i += 61 {
		hold(fine.At(i))
	}
	for i := 0; i < mixes[0].space.Len(); i += 211 {
		hold(mixes[0].space.At(i))
	}
	return walk
}

// TestSummaryWithMatchesFreshSummary is the differential test of the kernel
// carry: for every network plus the grouped stress model, one carry walks
// the fine space in row-major order, a seeded permutation of it with
// precision, catalogue and batch switched mid-walk, and mix points
// interleaved with homogeneous ones (poolFirst joins the paper networks and
// the stress model). After every step its totals must equal
// (==, every float bit) a fresh Summary and the direct per-layer
// EvaluateBatch on the same inputs. A last pass shares one carry across all
// the networks, switching plans at every call. A carry key missing any of
// its fields reuses a stale shape cost somewhere along these walks.
func TestSummaryWithMatchesFreshSummary(t *testing.T) {
	walk := carryWalk(t)
	models := append(allNetworks(), workload.NewGroupedStress(), poolFirst())
	for _, m := range models {
		plan := NewModelPlan(m)
		tmpl := hw.NewConfig(hw.Point{}, []*workload.Model{m})
		var cr Carry
		for i, st := range walk {
			c := tmpl
			c.Point, c.Precision, c.Cat = st.pt, st.prec, st.cat
			got, err := plan.SummaryWith(&c, st.batch, &cr)
			if err != nil {
				t.Fatalf("%s step %d %v: %v", m.Name, i, st.pt, err)
			}
			fresh, err := plan.Summary(c, st.batch)
			if err != nil {
				t.Fatalf("%s step %d %v: %v", m.Name, i, st.pt, err)
			}
			if got != fresh {
				t.Fatalf("%s step %d %v %v %s batch %d: carried %+v != fresh %+v",
					m.Name, i, st.pt, st.prec, st.cat.Name, st.batch, got, fresh)
			}
			// The direct path re-derives and allocates every layer, ten times
			// the cost of the rest of the walk; it checks every 13th step (a
			// stride prime to the 8-point axis runs) so the test stays fast
			// under -race, while the fresh Summary checks every step.
			if i%13 != 0 {
				continue
			}
			direct, err := EvaluateBatch(m, c, st.batch)
			if err != nil {
				t.Fatalf("%s step %d %v: direct: %v", m.Name, i, st.pt, err)
			}
			if got != direct.Summary() {
				t.Fatalf("%s step %d %v: carried %+v != direct %+v", m.Name, i, st.pt, got, direct.Summary())
			}
		}
	}

	plans := make([]*ModelPlan, len(models))
	tmpls := make([]hw.Config, len(models))
	for j, m := range models {
		plans[j] = NewModelPlan(m)
		tmpls[j] = hw.NewConfig(hw.Point{}, []*workload.Model{m})
	}
	var shared Carry
	for i := 0; i < len(walk); i += 7 {
		st := walk[i]
		for j, plan := range plans {
			c := tmpls[j]
			c.Point, c.Precision, c.Cat = st.pt, st.prec, st.cat
			got, err := plan.SummaryWith(&c, st.batch, &shared)
			if err != nil {
				t.Fatalf("shared carry, %s step %d %v: %v", models[j].Name, i, st.pt, err)
			}
			if fresh, _ := plan.Summary(c, st.batch); got != fresh {
				t.Fatalf("shared carry, %s step %d %v: carried %+v != fresh %+v",
					models[j].Name, i, st.pt, got, fresh)
			}
		}
	}
}

// Exact kernel calls of one carry per model walking a whole space in
// row-major order (NPool fastest), as one sweep worker does. A compute shape
// re-runs when SASize/NSA (or the mix) steps, an activation shape when NAct
// steps, a pooling shape at every point and an engine shape once:
//
//	fine x 13 training nets (229 compute, 124 activation, 20 pooling and
//	16 engine shapes): 229*192 + 124*1,536 + 20*12,288 + 16 = 480,208.
//	mixfine x {AlexNet, ViT-base, ResNet-18} (25, 11, 6 and 4 shapes; 1,727
//	mixes): 25*1,727 + 11*13,816 + 6*110,528 + 4 = 858,323.
//
// Without carried costs every point runs every shape, one Summary per point
// and model: 389 x 12,288 = 4,780,032 calls on fine, and 46 x 110,528 =
// 5,084,288 on mixfine.
//
// Each call also re-adds the layers from the first layer of a re-run class
// on, where the full pass adds all 2,263 (fine) or 149 (mixfine) layers per
// point: 27,807,744 and 16,468,672 adds.
const (
	fineKernelCalls    = 480208
	mixfineKernelCalls = 858323
	fineLayerAdds      = 8587200
	mixfineLayerAdds   = 7450278
)

// walkWork walks every point of space through one carry per model and
// returns the kernel calls and layer adds the carries made.
func walkWork(t *testing.T, models []*workload.Model, space hw.DesignSpace) (calls, adds int64) {
	t.Helper()
	for _, m := range models {
		plan := NewModelPlan(m)
		c := hw.NewConfig(hw.Point{}, []*workload.Model{m})
		c.Cat = hw.CatalogueOf(space)
		var cr Carry
		for k := 0; k < space.Len(); k++ {
			c.Point = space.At(k)
			if _, err := plan.SummaryWith(&c, 1, &cr); err != nil {
				t.Fatalf("%s %v: %v", m.Name, c.Point, err)
			}
		}
		calls += cr.kernels
		adds += cr.adds
	}
	return calls, adds
}

// TestSweepKernelWork gates the sweep's kernel work on an exact,
// machine-independent counter: the kernel calls of a row-major walk over
// fine x the 13 training nets and over mixfine x the three mix nets, one
// carry per model, must equal the pinned totals. A rise means shape costs
// stopped being reused across points; a drop means the pins are stale. It
// also pins a steady-state carry call to zero allocations.
func TestSweepKernelWork(t *testing.T) {
	calls, adds := walkWork(t, workload.TrainingSet(), hw.FineSpace())
	if calls != fineKernelCalls || adds != fineLayerAdds {
		t.Errorf("fine x training set: %d kernel calls, %d layer adds; want %d, %d", calls, adds, fineKernelCalls, fineLayerAdds)
	}
	mixfine := mustBuildMix(t, hw.FineMixSpec(hw.Default()))
	mixNets := []*workload.Model{workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18()}
	calls, adds = walkWork(t, mixNets, mixfine)
	if calls != mixfineKernelCalls || adds != mixfineLayerAdds {
		t.Errorf("mixfine x mix nets: %d kernel calls, %d layer adds; want %d, %d", calls, adds, mixfineKernelCalls, mixfineLayerAdds)
	}

	m := workload.NewResNet50()
	plan := NewModelPlan(m)
	c := hw.NewConfig(centralPoint(), []*workload.Model{m})
	var cr Carry
	pools := [...]int{16, 32}
	i := 0
	avg := testing.AllocsPerRun(100, func() {
		c.NPool = pools[i%2]
		i++
		if _, err := plan.SummaryWith(&c, 1, &cr); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state SummaryWith allocates %.1f objects per call, want 0", avg)
	}
}
