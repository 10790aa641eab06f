package workload

// NewGroupedStress returns a synthetic adversarial network covering the
// grouped/depthwise convolution corner cases of the fold planners: depthwise
// (Groups == NIFM == NOFM), grouped with divisible channels, Groups not
// dividing NOFM, NIFM smaller than Groups (degenerate per-group reduction),
// and a grouped mixture-of-experts Conv1d. It is not part of the paper's
// training or test sets and is not registered in the builders map; the
// differential validation harness (internal/check) appends it to the 19
// networks so every grouped code path is exercised even though only the
// MobileNet-class members of the paper sets use grouped convolution — and
// none use grouped Conv1d at all.
//
// It also repeats shapes the way real networks do, for the plans that
// evaluate each distinct layer shape once: an exact repeat under a new name,
// and layer pairs that differ only in Copies, only in ActiveCopies and only
// in Groups, which a shape key must keep apart.
func NewGroupedStress() *Model {
	m := &Model{Name: "GroupedStress", Class: "synthetic", Source: "internal/check"}
	m.Layers = []Layer{
		// Depthwise Conv2d: Groups == NIFM == NOFM (MobileNet idiom).
		{Kind: Conv2d, Name: "dw0", IFMX: 28, IFMY: 28, NIFM: 96,
			OFMX: 28, OFMY: 28, NOFM: 96, KX: 3, KY: 3, Stride: 1, Pad: 1, Groups: 96},
		{Kind: ReLU6, Name: "act0", IFMX: 28, IFMY: 28, NIFM: 96,
			OFMX: 28, OFMY: 28, NOFM: 96},
		// Grouped Conv2d with Groups dividing both channel counts.
		{Kind: Conv2d, Name: "grp0", IFMX: 28, IFMY: 28, NIFM: 96,
			OFMX: 28, OFMY: 28, NOFM: 192, KX: 3, KY: 3, Stride: 1, Pad: 1, Groups: 8},
		// Grouped Conv2d where Groups does not divide NOFM (100 % 8 != 0);
		// per-group output channels truncate and must clamp consistently.
		{Kind: Conv2d, Name: "grp1", IFMX: 14, IFMY: 14, NIFM: 64,
			OFMX: 14, OFMY: 14, NOFM: 100, KX: 1, KY: 1, Stride: 1, Groups: 8},
		{Kind: MaxPool, Name: "pool0", IFMX: 14, IFMY: 14, NIFM: 100,
			OFMX: 7, OFMY: 7, NOFM: 100, KX: 2, KY: 2, Stride: 2},
		// Grouped Conv1d with divisible channels — the shape class the
		// paper sets never exercise (GPT-2/Whisper Conv1d are ungrouped).
		{Kind: Conv1d, Name: "g1d0", IFMX: 128, OFMX: 128, NIFM: 64,
			NOFM: 128, KX: 3, Stride: 1, Pad: 1, Groups: 4},
		// Grouped Conv1d with NIFM < Groups: the per-group reduction
		// truncates to zero and must clamp to one.
		{Kind: Conv1d, Name: "g1d1", IFMX: 64, OFMX: 64, NIFM: 2,
			NOFM: 8, KX: 1, Stride: 1, Groups: 4},
		// Grouped Conv1d where Groups does not divide NOFM.
		{Kind: Conv1d, Name: "g1d2", IFMX: 64, OFMX: 64, NIFM: 12,
			NOFM: 30, KX: 3, Stride: 1, Pad: 1, Groups: 4},
		// Grouped mixture-of-experts Conv1d: ActiveCopies multiplies folds.
		{Kind: Conv1d, Name: "g1dmoe", IFMX: 32, OFMX: 32, NIFM: 32,
			NOFM: 64, KX: 1, Stride: 1, Groups: 2, Copies: 4, ActiveCopies: 2},
		// Shape repeats: g1dmoe again under a new name, then variants that
		// differ from it only in ActiveCopies (folds and MACs), only in
		// Copies (weight traffic) and only in Groups.
		{Kind: Conv1d, Name: "g1dmoe.rep", IFMX: 32, OFMX: 32, NIFM: 32,
			NOFM: 64, KX: 1, Stride: 1, Groups: 2, Copies: 4, ActiveCopies: 2},
		{Kind: Conv1d, Name: "g1dmoe.active1", IFMX: 32, OFMX: 32, NIFM: 32,
			NOFM: 64, KX: 1, Stride: 1, Groups: 2, Copies: 4, ActiveCopies: 1},
		{Kind: Conv1d, Name: "g1dmoe.copies8", IFMX: 32, OFMX: 32, NIFM: 32,
			NOFM: 64, KX: 1, Stride: 1, Groups: 2, Copies: 8, ActiveCopies: 2},
		{Kind: Conv1d, Name: "g1dmoe.groups4", IFMX: 32, OFMX: 32, NIFM: 32,
			NOFM: 64, KX: 1, Stride: 1, Groups: 4, Copies: 4, ActiveCopies: 2},
		{Kind: GELU, Name: "act1", IFMX: 32, NIFM: 64, OFMX: 32, NOFM: 64},
		{Kind: Linear, Name: "head", IFMX: 1, NIFM: 64, NOFM: 10},
	}
	return m
}
