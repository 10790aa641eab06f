// Package metrics implements CLAIRE's composable metrics (Outputs #TR2/#TT2):
// chiplet utilization U_chiplet (algorithm coverage C_layer is
// hw.Config.Coverage), plus the comparison helpers behind Figure 4
// (area/latency/energy deviations between generic, custom and
// library-synthesized configurations).
package metrics

import (
	"fmt"
	"math"

	"repro/internal/hw"
)

// Utilization returns U_chiplet(i, k): the fraction of module banks across
// all chiplets of the package that algorithm i exercises. chiplets lists, for
// each chiplet, the unit kinds of its banks (a split bank appears in several
// chiplets and each appearance counts separately).
func Utilization(chiplets [][]hw.Unit, need map[hw.Unit]bool) float64 {
	total, used := 0, 0
	for _, banks := range chiplets {
		for _, u := range banks {
			total++
			if need[u] {
				used++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(used) / float64(total)
}

// WeightedUtilization is the D1-ablation variant of U_chiplet: instead of
// counting banks, it counts unit instances, so a 64-array systolic bank
// weighs 64 units against a 16-unit activation bank. banks lists each
// chiplet's banks.
func WeightedUtilization(chiplets [][]hw.Bank, need map[hw.Unit]bool) float64 {
	var total, used float64
	for _, banks := range chiplets {
		for _, b := range banks {
			total += float64(b.Count)
			if need[b.Unit] {
				used += float64(b.Count)
			}
		}
	}
	if total == 0 {
		return 0
	}
	return used / total
}

// PPA is one algorithm's evaluated performance on one configuration,
// including interconnect overheads.
type PPA struct {
	LatencyS     float64
	EnergyPJ     float64
	AreaMM2      float64
	PowerDensity float64
}

// Comparison is one Figure 4 row: an algorithm's PPA on the generic, custom
// and library-synthesized configurations.
type Comparison struct {
	Algorithm string
	Generic   PPA
	Custom    PPA
	Library   PPA
}

// LibVsCustomAreaDev returns |library - custom| / custom for area; the paper
// reports a maximum of 0.116% across algorithms.
func (c Comparison) LibVsCustomAreaDev() float64 {
	return relDev(c.Library.AreaMM2, c.Custom.AreaMM2)
}

// LibVsCustomEnergyDev returns the relative energy deviation; the paper
// reports at most 0.2% (no power gating, so only leakage differs).
func (c Comparison) LibVsCustomEnergyDev() float64 {
	return relDev(c.Library.EnergyPJ, c.Custom.EnergyPJ)
}

// LibVsCustomLatencyDev returns the relative latency deviation.
func (c Comparison) LibVsCustomLatencyDev() float64 {
	return relDev(c.Library.LatencyS, c.Custom.LatencyS)
}

func relDev(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// MaxLibVsCustomDeviation scans comparisons and returns the worst relative
// deviation for each of area, latency and energy.
func MaxLibVsCustomDeviation(cs []Comparison) (area, latency, energy float64) {
	for _, c := range cs {
		area = math.Max(area, c.LibVsCustomAreaDev())
		latency = math.Max(latency, c.LibVsCustomLatencyDev())
		energy = math.Max(energy, c.LibVsCustomEnergyDev())
	}
	return area, latency, energy
}

// Validate checks a PPA for physical sanity.
func (p PPA) Validate() error {
	if p.LatencyS < 0 || p.EnergyPJ < 0 || p.AreaMM2 < 0 || p.PowerDensity < 0 {
		return fmt.Errorf("metrics: negative PPA %+v", p)
	}
	return nil
}
