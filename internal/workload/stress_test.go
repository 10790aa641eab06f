package workload

import "testing"

// TestGroupedStressLayersValid keeps the synthetic grouped-stress network
// structurally sound: every layer passes Validate, every advertised corner
// case is actually present — including the shape repeats, an exact one and
// pairs differing only in Copies, ActiveCopies or Groups — and it stays out
// of the registered builder set (it must never leak into Table I golden
// output).
func TestGroupedStressLayersValid(t *testing.T) {
	m := NewGroupedStress()
	var depthwise, conv1dGrouped, nofmIndivisible, nifmBelowGroups, moe bool
	for _, l := range m.Layers {
		if err := l.Validate(); err != nil {
			t.Errorf("layer %s: %v", l.Name, err)
		}
		if l.Groups > 1 {
			switch {
			case l.Kind == Conv2d && l.Groups == l.NIFM:
				depthwise = true
			case l.Kind == Conv1d:
				conv1dGrouped = true
			}
			if l.NOFM%l.Groups != 0 {
				nofmIndivisible = true
			}
			if l.NIFM < l.Groups {
				nifmBelowGroups = true
			}
			if l.ActiveCopies > 1 {
				moe = true
			}
		}
	}
	// Shape repeats: pairs equal in every field but Name and at most one
	// other.
	var repeat, copiesOnly, activeOnly, groupsOnly bool
	for i, a := range m.Layers {
		for _, b := range m.Layers[i+1:] {
			a.Name, b.Name = "", ""
			ac, aa, ag := a, a, a
			ac.Copies, aa.ActiveCopies, ag.Groups = b.Copies, b.ActiveCopies, b.Groups
			repeat = repeat || a == b
			copiesOnly = copiesOnly || (a != b && ac == b)
			activeOnly = activeOnly || (a != b && aa == b)
			groupsOnly = groupsOnly || (a != b && ag == b)
		}
	}
	for name, ok := range map[string]bool{
		"exact shape repeat":     repeat,
		"Copies-only twin":       copiesOnly,
		"ActiveCopies-only twin": activeOnly,
		"Groups-only twin":       groupsOnly,
		"depthwise":              depthwise,
		"grouped conv1d":         conv1dGrouped,
		"groups not | NOFM":      nofmIndivisible,
		"NIFM < groups":          nifmBelowGroups,
		"grouped MoE conv1d":     moe,
	} {
		if !ok {
			t.Errorf("stress model lost its %s corner case", name)
		}
	}
	if _, err := ByName(m.Name); err == nil {
		t.Error("GroupedStress must not be a registered builder")
	}
}
