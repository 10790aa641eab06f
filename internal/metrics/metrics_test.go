package metrics

import (
	"math"
	"testing"

	"repro/internal/hw"
)

func TestUtilization(t *testing.T) {
	chiplets := [][]hw.Unit{
		{hw.SystolicArray, hw.ActReLU, hw.PoolMax},
		{hw.SystolicArray, hw.ActGELU},
	}
	need := map[hw.Unit]bool{hw.SystolicArray: true, hw.ActGELU: true}
	// Used: SA (x2, both chiplets), GELU -> 3 of 5 banks.
	if got := Utilization(chiplets, need); got != 0.6 {
		t.Errorf("utilization = %v, want 0.6", got)
	}
	if Utilization(nil, need) != 0 {
		t.Error("no chiplets -> zero utilization")
	}
	if got := Utilization(chiplets, nil); got != 0 {
		t.Errorf("no needs -> zero utilization, got %v", got)
	}
	all := map[hw.Unit]bool{
		hw.SystolicArray: true, hw.ActReLU: true, hw.PoolMax: true, hw.ActGELU: true,
	}
	if got := Utilization(chiplets, all); got != 1 {
		t.Errorf("full use = %v, want 1", got)
	}
}

func TestComparisonDeviations(t *testing.T) {
	c := Comparison{
		Algorithm: "x",
		Custom:    PPA{AreaMM2: 100, LatencyS: 1, EnergyPJ: 1000},
		Library:   PPA{AreaMM2: 100.116, LatencyS: 1.01, EnergyPJ: 1002},
	}
	if dev := c.LibVsCustomAreaDev(); math.Abs(dev-0.00116) > 1e-9 {
		t.Errorf("area dev = %v, want 0.00116 (the paper's 0.116%%)", dev)
	}
	if dev := c.LibVsCustomEnergyDev(); math.Abs(dev-0.002) > 1e-9 {
		t.Errorf("energy dev = %v, want 0.002 (the paper's 0.2%%)", dev)
	}
	if dev := c.LibVsCustomLatencyDev(); math.Abs(dev-0.01) > 1e-9 {
		t.Errorf("latency dev = %v", dev)
	}
}

func TestRelDevEdgeCases(t *testing.T) {
	zero := Comparison{Custom: PPA{}, Library: PPA{}}
	if zero.LibVsCustomAreaDev() != 0 {
		t.Error("0/0 deviation should be 0")
	}
	inf := Comparison{Custom: PPA{}, Library: PPA{AreaMM2: 1}}
	if !math.IsInf(inf.LibVsCustomAreaDev(), 1) {
		t.Error("x/0 deviation should be +Inf")
	}
}

func TestMaxLibVsCustomDeviation(t *testing.T) {
	cs := []Comparison{
		{Custom: PPA{AreaMM2: 10, LatencyS: 1, EnergyPJ: 1}, Library: PPA{AreaMM2: 11, LatencyS: 1, EnergyPJ: 1}},
		{Custom: PPA{AreaMM2: 10, LatencyS: 1, EnergyPJ: 1}, Library: PPA{AreaMM2: 10, LatencyS: 1.5, EnergyPJ: 1.2}},
	}
	a, l, e := MaxLibVsCustomDeviation(cs)
	if math.Abs(a-0.1) > 1e-12 || math.Abs(l-0.5) > 1e-12 || math.Abs(e-0.2) > 1e-12 {
		t.Errorf("max devs = %v %v %v", a, l, e)
	}
}

func TestPPAValidate(t *testing.T) {
	if err := (PPA{LatencyS: 1, EnergyPJ: 1, AreaMM2: 1, PowerDensity: 1}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (PPA{LatencyS: -1}).Validate(); err == nil {
		t.Error("negative latency should fail")
	}
}
