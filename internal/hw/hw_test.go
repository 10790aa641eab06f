package hw

import (
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

func TestUnitForCoversEveryOpKind(t *testing.T) {
	for k := workload.OpKind(0); int(k) < workload.NumOpKinds; k++ {
		u := UnitFor(k) // must not panic
		if k.IsCompute() && u != SystolicArray {
			t.Errorf("%v maps to %v, want SA", k, u)
		}
		if k.IsActivation() && !u.IsActivation() {
			t.Errorf("%v maps to non-activation unit %v", k, u)
		}
		if k.IsPooling() && !u.IsPooling() {
			t.Errorf("%v maps to non-pooling unit %v", k, u)
		}
		if k.IsReshape() && !u.IsEngine() {
			t.Errorf("%v maps to non-engine unit %v", k, u)
		}
	}
}

func TestUnitPredicatesPartition(t *testing.T) {
	for u := Unit(0); int(u) < NumUnits; u++ {
		n := 0
		if u == SystolicArray {
			n++
		}
		if u.IsActivation() {
			n++
		}
		if u.IsPooling() {
			n++
		}
		if u.IsEngine() {
			n++
		}
		if n != 1 {
			t.Errorf("%v matches %d categories, want 1", u, n)
		}
	}
}

func TestPPACatalogueComplete(t *testing.T) {
	for u := Unit(1); int(u) < NumUnits; u++ {
		p := PPA(u)
		if p.AreaUM2 <= 0 || p.EnergyPJ <= 0 || p.ThroughputE <= 0 {
			t.Errorf("%v has non-positive PPA %+v", u, p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("PPA(SystolicArray) should panic")
		}
	}()
	PPA(SystolicArray)
}

// TestPPARelativeOrdering pins the orderings the DSE outcome depends on:
// complex nonlinear units (GELU/SiLU/ROIAlign) cost far more area and energy
// than comparator-based units (ReLU/MaxPool).
func TestPPARelativeOrdering(t *testing.T) {
	if PPA(ActGELU).AreaUM2 <= 10*PPA(ActReLU).AreaUM2 {
		t.Error("GELU should be at least an order of magnitude larger than ReLU")
	}
	if PPA(ActSiLU).EnergyPJ <= PPA(ActTanh).EnergyPJ {
		t.Error("SiLU should cost more energy than tanh")
	}
	if PPA(PoolROIAlign).AreaUM2 <= PPA(PoolMax).AreaUM2 {
		t.Error("ROIAlign should dwarf MaxPool")
	}
}

func TestSAScaling(t *testing.T) {
	small, big := SA(16), SA(32)
	if big.PeakMACs != 4*small.PeakMACs {
		t.Errorf("peak MACs: %v vs %v, want 4x", big.PeakMACs, small.PeakMACs)
	}
	if big.AreaUM2 <= 3*small.AreaUM2 || big.AreaUM2 >= 4.5*small.AreaUM2 {
		t.Errorf("32x32 area %.0f should be ~4x 16x16 area %.0f (sub-linear overheads)",
			big.AreaUM2, small.AreaUM2)
	}
	defer func() {
		if recover() == nil {
			t.Error("SA(0) should panic")
		}
	}()
	SA(0)
}

func TestSpaceIs81UniquePoints(t *testing.T) {
	pts := Space()
	if len(pts) != 81 {
		t.Fatalf("space has %d points, want 81 (as in Section V-A)", len(pts))
	}
	seen := make(map[Point]bool)
	for _, p := range pts {
		if seen[p] {
			t.Errorf("duplicate point %v", p)
		}
		seen[p] = true
		if p.SASize <= 0 || p.NSA <= 0 || p.NAct <= 0 || p.NPool <= 0 {
			t.Errorf("non-positive point %v", p)
		}
	}
}

func TestNewConfigDerivesKindsFromModels(t *testing.T) {
	p := Point{SASize: 32, NSA: 32, NAct: 16, NPool: 16}
	c := NewConfig(p, []*workload.Model{workload.NewAlexNet()})
	if !c.Supports(workload.NewAlexNet()) {
		t.Fatal("config built for AlexNet does not support it")
	}
	units := c.Units()
	for _, want := range []Unit{SystolicArray, ActReLU, PoolMax, PoolAdaptiveAvg, EngFlatten} {
		if !units[want] {
			t.Errorf("AlexNet config missing %v", want)
		}
	}
	for _, no := range []Unit{ActGELU, ActSiLU, PoolROIAlign, EngPermute} {
		if units[no] {
			t.Errorf("AlexNet config has unnecessary %v", no)
		}
	}
	if c.Coverage(workload.NewBERTBase()) >= 1 {
		t.Error("AlexNet config should not fully cover BERT (no GELU)")
	}
	if cov := c.Coverage(workload.NewAlexNet()); cov != 1 {
		t.Errorf("self coverage = %v, want 1", cov)
	}
}

func TestBanksAndArea(t *testing.T) {
	p := Point{SASize: 32, NSA: 32, NAct: 16, NPool: 16}
	c := NewConfig(p, []*workload.Model{workload.NewAlexNet()})
	banks := c.Banks()
	if banks[0].Unit != SystolicArray || banks[0].Count != 32 || banks[0].SASize != 32 {
		t.Errorf("first bank = %v, want SA[32x32]x32", banks[0])
	}
	var um2 float64
	for _, b := range banks {
		if b.AreaUM2() <= 0 {
			t.Errorf("bank %v has non-positive area", b)
		}
		um2 += b.AreaUM2()
	}
	if got := c.AreaMM2(); got != UM2ToMM2(um2) {
		t.Errorf("AreaMM2 = %v, want %v", got, UM2ToMM2(um2))
	}
	// The paper constrains initial sizes to a realistic 10-100 mm^2 range;
	// the central DSE point must land inside it.
	if a := c.AreaMM2(); a < 10 || a > 100 {
		t.Errorf("central config area %.1f mm^2 outside the realistic 10-100 range", a)
	}
}

// TestQuickConfigAreaMonotone property-checks that growing any DSE dimension
// never shrinks area.
func TestQuickConfigAreaMonotone(t *testing.T) {
	models := []*workload.Model{workload.NewResNet18()}
	f := func(si, ni, ai, pi uint8) bool {
		dims := []int{16, 32, 64}
		cnts := []int{8, 16, 32}
		p := Point{
			SASize: dims[int(si)%3], NSA: dims[int(ni)%3],
			NAct: cnts[int(ai)%3], NPool: cnts[int(pi)%3],
		}
		base := NewConfig(p, models).AreaMM2()
		p2 := p
		p2.NSA *= 2
		if NewConfig(p2, models).AreaMM2() < base {
			return false
		}
		p3 := p
		p3.SASize *= 2
		return NewConfig(p3, models).AreaMM2() >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConfigString(t *testing.T) {
	p := Point{SASize: 32, NSA: 32, NAct: 16, NPool: 16}
	c := NewConfig(p, []*workload.Model{workload.NewViTBase()})
	s := c.String()
	for _, frag := range []string{"32x32 x32", "GELU", "+FLATTEN", "+PERMUTE"} {
		if !contains(s, frag) {
			t.Errorf("config string %q missing %q", s, frag)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestPrecisionScaling(t *testing.T) {
	if Int8.Bytes() != 1 || Int16.Bytes() != 2 {
		t.Error("precision byte widths wrong")
	}
	if Int8.String() != "INT8" || Int16.String() != "INT16" {
		t.Error("precision names wrong")
	}
	a8, a16 := SAFor(32, Int8), SAFor(32, Int16)
	if a16.AreaUM2 <= 3*a8.AreaUM2 || a16.AreaUM2 >= 4*a8.AreaUM2 {
		t.Errorf("INT16 array area %.0f should be 3-4x INT8's %.0f", a16.AreaUM2, a8.AreaUM2)
	}
	if a16.MacPJ <= 2.5*a8.MacPJ {
		t.Errorf("INT16 MAC energy %.2f should be ~3x INT8's %.2f", a16.MacPJ, a8.MacPJ)
	}
	if a16.PeakMACs != a8.PeakMACs {
		t.Error("precision must not change peak MAC rate")
	}
	// Zero value is INT8: SA() == SAFor(Int8).
	if SA(32) != SAFor(32, Int8) {
		t.Error("SA default precision drifted")
	}
	// A config at INT16 is larger.
	p := Point{SASize: 32, NSA: 32, NAct: 16, NPool: 16}
	c8 := NewConfig(p, []*workload.Model{workload.NewResNet18()})
	c16 := c8
	c16.Precision = Int16
	if c16.AreaMM2() <= 2.5*c8.AreaMM2() {
		t.Errorf("INT16 config %.1f mm2 should dwarf INT8 %.1f mm2",
			c16.AreaMM2(), c8.AreaMM2())
	}
}
