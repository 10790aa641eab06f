// Layer-granular cost kernels, precomputed model plans and carried shape
// costs.
//
// The analytical model factors cleanly by layer, and each layer's cost
// depends only on its shape and a small sub-parameterization of the
// configuration: a compute layer's fold/stream decomposition depends only on
// (shape, SASize) — 3 distinct values across the whole 81-point space, not
// 81 — and an element-wise layer only on (shape, bank count, precision).
// Networks repeat shapes heavily: the 13 training networks have 2,263 layers
// but only 389 distinct shapes (BERT-base's 84 layers are 4 shapes). A
// ModelPlan therefore groups layers by shape once per model (every
// workload.Layer field except Name), precomputes the configuration-independent
// counts once per shape, and caches the per-SASize fold decompositions as one
// row per shape.
//
// Sweeps also repeat shape costs across points. A shape's kernel reads the
// catalogue, the precision, the batch and one class of point axes: SASize
// and NSA (or the mix) for a compute shape, NAct for an activation shape,
// NPool for a pooling shape, none for an engine shape. A Carry keeps every
// shape's latency and energy from the previous call together with that key,
// and SummaryWith re-runs the kernel only for the shapes whose inputs moved:
// in row-major order over the fine space, a compute shape re-runs once every
// 64 points, not at every point. Every evaluation then adds the per-shape
// latency and energy into the totals in layer order — the same addends in
// the same order as the per-layer path, so every total is bit-identical to
// it, whatever points the carry saw before. The carry also keeps the running
// sums at the first layer of each class, and the adds resume from the one
// before the first layer whose cost moved. ModelPlan.Summary is SummaryWith
// on an empty carry.
//
// Summary is the allocation-lean result form: exactly the whole-algorithm
// totals of Eval without the per-layer []LayerEval breakdown. Sweeps filter
// on summaries and materialize a full Eval lazily, only for the points they
// end up reporting (see internal/eval and internal/dse).
package ppa

import (
	"fmt"
	"sync/atomic"

	"repro/internal/hw"
	"repro/internal/workload"
)

// layerPlan carries the configuration-independent cost inputs of one layer
// shape.
type layerPlan struct {
	unit  hw.Unit
	class uint8 // which point axes the shape's kernel reads

	// Compute layers (systolic array).
	macs, params, inElems int64
	// Element-wise layers.
	elementOps int64
	// Both.
	outElems int64
}

// Shape classes, by the point axes a shape's kernel reads besides the
// catalogue, precision and batch (see bankCount).
const (
	classCompute uint8 = iota // SASize and NSA, or the mix
	classAct                  // NAct
	classPool                 // NPool
	classEngine               // none: engine banks have a fixed count
	numClasses

	allClasses uint8 = 1<<numClasses - 1
)

// layerPlanOf precomputes the configuration-independent counts of one layer.
func layerPlanOf(l workload.Layer) layerPlan {
	lp := layerPlan{outElems: l.OutputElems()}
	if l.Kind.IsCompute() {
		lp.unit = hw.SystolicArray
		lp.class = classCompute
		lp.macs = l.MACs()
		lp.params = l.Params()
		lp.inElems = l.InputElems()
	} else {
		lp.unit = hw.UnitFor(l.Kind)
		switch {
		case lp.unit.IsActivation():
			lp.class = classAct
		case lp.unit.IsPooling():
			lp.class = classPool
		default:
			lp.class = classEngine
		}
		lp.elementOps = l.ElementOps()
	}
	return lp
}

// foldPlan is the SASize-dependent decomposition of one compute layer: the
// weight-stationary fold/stream counts plus the output-column tiling that
// governs activation re-streaming.
type foldPlan struct {
	folds, streams, colTiles int64
}

// foldTable holds one array dimension's fold decompositions, one row per
// shape (element-wise shapes keep zero rows). Tables form an immutable
// prepend-only list, so readers walk it without locking.
type foldTable struct {
	size int
	rows []foldPlan
	next *foldTable
}

// foldPlanOf computes the decomposition of one compute layer for one array
// dimension.
func foldPlanOf(l workload.Layer, size int) foldPlan {
	folds, streams := computeFolds(l, size)
	colTiles := ceilDiv(int64(l.NOFM), int64(size))
	if colTiles == 0 {
		colTiles = 1
	}
	return foldPlan{folds: folds, streams: streams, colTiles: colTiles}
}

// kernelOut is the raw cost of one layer — the handful of scalars both
// result forms are assembled from. Kernels return it instead of a LayerEval
// so the summary path never copies the ~150-byte embedded workload.Layer.
type kernelOut struct {
	executions int64
	latencyS   float64
	energyPJ   float64
	outBytes   int64
}

// computeKernelVals is the sized inner compute kernel over raw scalars: one
// layer's cost on a bank of count size x size arrays with the given per-MAC
// energy and process constants. Every compute path — the plan's per-shape
// loop, the direct per-layer path and the heterogeneous mix dispatch —
// funnels through this one function, so they share one floating-point
// operation order. This is the innermost loop of every sweep; it touches
// only its arguments and performs no allocation.
func computeKernelVals(macs, params, inElems, outElems, folds, streams, colTiles int64,
	size, count int, macPJ, clockGHz, sramBytePJ float64, bytesPer, b int64) kernelOut {
	// Folds execute across the count arrays in waves; each fold loads its
	// weight tile (size cycles), streams the whole batch's activations,
	// and drains the pipeline (2*size - 2 cycles of skew) — for batch 1,
	// exactly the cycle count of the PE-level simulator in internal/systolic.
	waves := ceilDiv(folds, int64(count))
	cyclesPerFold := b*streams + 3*int64(size) - 2
	cycles := waves * cyclesPerFold

	// Dynamic energy: real MACs plus activation/weight movement through the
	// local SRAM. Inputs are re-streamed once per output-column tile; the
	// weight tile is read once per fold regardless of batch.
	macE := float64(b*macs) * macPJ
	moveBytes := float64(b * (inElems*colTiles + outElems) * bytesPer)
	weightBytes := float64(params * bytesPer)

	return kernelOut{
		executions: folds,
		latencyS:   float64(cycles) / (clockGHz * 1e9),
		energyPJ:   macE + (moveBytes+weightBytes)*sramBytePJ,
		outBytes:   b * outElems * bytesPer,
	}
}

// computeKernelOn is computeKernelVals over a layer plan and a fold plan.
func computeKernelOn(lp *layerPlan, fp *foldPlan, size, count int, macPJ, clockGHz, sramBytePJ float64, bytesPer, b int64) kernelOut {
	return computeKernelVals(lp.macs, lp.params, lp.inElems, lp.outElems,
		fp.folds, fp.streams, fp.colTiles, size, count, macPJ, clockGHz, sramBytePJ, bytesPer, b)
}

// computeKernel evaluates a homogeneous compute layer from its precomputed
// plans for the direct per-layer path. Plans hoist the catalogue resolution
// out of the per-shape loop and call computeKernelOn directly.
func computeKernel(lp *layerPlan, fp foldPlan, c *hw.Config, batch int) kernelOut {
	cat := c.Catalogue()
	sa := cat.SAFor(c.SASize, c.Precision)
	return computeKernelOn(lp, &fp, c.SASize, c.NSA, sa.MacPJ,
		cat.ClockGHz, cat.SRAMBytePJ, int64(c.Precision.Bytes()), int64(batch))
}

// mixFoldSource resolves per-type fold decompositions for the mix kernel:
// from a plan's cached per-size tables (plan path) or recomputed per layer
// (direct path). A value type so the hot mix sweep allocates nothing.
type mixFoldSource struct {
	// Plan path: per-type fold tables plus the shape index.
	tables *[hw.MaxMixTypes][]foldPlan
	shape  int
	// Direct path: the layer itself.
	l *workload.Layer
}

func (s mixFoldSource) at(ti, size int) foldPlan {
	if s.tables != nil {
		return s.tables[ti][s.shape]
	}
	return foldPlanOf(*s.l, size)
}

// mixComputeKernel evaluates a compute layer on a heterogeneous mix: the
// layer runs on whichever active chiplet type minimizes its latency, ties
// broken toward the lowest type index — a per-layer greedy dispatch that
// keeps the analytical model layer-separable. Config.CheckMix guarantees at
// least one active type. The catalogue is passed in so sweeps resolve it once
// per configuration, not once per layer.
func mixComputeKernel(lp *layerPlan, src mixFoldSource, c *hw.Config, cat *hw.Catalogue, batch int) kernelOut {
	bytesPer := int64(c.Precision.Bytes())
	b := int64(batch)
	var best kernelOut
	first := true
	for ti := range cat.Chiplets {
		n := int(c.Mix.Counts[ti])
		if n == 0 {
			continue
		}
		spec := &cat.Chiplets[ti]
		fp := src.at(ti, spec.SASize)
		out := computeKernelOn(lp, &fp, spec.SASize, n, spec.EnergyPerMACPJ,
			cat.ClockGHz, cat.SRAMBytePJ, bytesPer, b)
		if first || out.latencyS < best.latencyS {
			best, first = out, false
		}
	}
	return best
}

// elementKernelVals evaluates an activation, pooling or engine layer over
// raw scalars; element-wise work scales linearly with the batch. A
// degenerate bank (zero instances, or a throughput product below one op per
// cycle) is clamped to the slowest physical rate instead of dividing by
// zero. Like computeKernelVals, it is shared by every path and performs no
// allocation.
func elementKernelVals(u hw.Unit, elemOps, outElems int64, bank int, cat *hw.Catalogue, bytesPer, b int64) kernelOut {
	p := cat.PPA(u)
	count := int64(bank)
	if count < 1 {
		count = 1
	}
	ops := b * elemOps
	perCycle := int64(float64(count) * p.ThroughputE)
	if perCycle < 1 {
		perCycle = 1
	}
	return kernelOut{
		executions: ceilDiv(ops, count),
		latencyS:   float64(ceilDiv(ops, perCycle)) / (cat.ClockGHz * 1e9),
		energyPJ:   float64(ops) * p.EnergyPJ,
		outBytes:   b * outElems * bytesPer,
	}
}

// elementKernel is elementKernelVals over a layer plan.
func elementKernel(lp *layerPlan, c *hw.Config, cat *hw.Catalogue, batch int) kernelOut {
	return elementKernelVals(lp.unit, lp.elementOps, lp.outElems,
		bankCount(lp.unit, c), cat, int64(c.Precision.Bytes()), int64(batch))
}

// Summary is the scalar result of an evaluation: exactly the whole-algorithm
// totals of Eval, bit-identical to a full evaluation of the same (model,
// configuration, batch), without the per-layer breakdown.
type Summary struct {
	LatencyS  float64
	DynamicPJ float64
	LeakagePJ float64
	AreaMM2   float64
}

// EnergyPJ returns total energy including leakage.
func (s Summary) EnergyPJ() float64 { return s.DynamicPJ + s.LeakagePJ }

// EnergyJ returns total energy in joules.
func (s Summary) EnergyJ() float64 { return s.EnergyPJ() * 1e-12 }

// PowerW returns average power over the run.
func (s Summary) PowerW() float64 {
	if s.LatencyS <= 0 {
		return 0
	}
	return s.EnergyJ() / s.LatencyS
}

// PowerDensity returns average power density in W/mm^2.
func (s Summary) PowerDensity() float64 {
	if s.AreaMM2 <= 0 {
		return 0
	}
	return s.PowerW() / s.AreaMM2
}

// Summary extracts the scalar totals of a full evaluation.
func (e *Eval) Summary() Summary {
	return Summary{
		LatencyS:  e.LatencyS,
		DynamicPJ: e.DynamicPJ,
		LeakagePJ: e.LeakagePJ,
		AreaMM2:   e.AreaMM2,
	}
}

// ModelPlan is the precomputed cost plan of one model: the layers grouped by
// shape, the configuration-independent counts of each distinct shape, and a
// lazily grown cache of per-SASize fold tables. A ModelPlan is safe for
// concurrent use; the underlying model must not be structurally mutated after
// the plan is built.
type ModelPlan struct {
	model  *workload.Model
	shape  []int32     // per layer: index of the layer's shape
	first  []int32     // per shape: index of its first layer
	shapes []layerPlan // per shape: configuration-independent counts
	units  []hw.Unit   // distinct required units, for allocation-free coverage checks

	classes    uint8             // bit set of the shape classes present
	byClass    []int32           // shape indices grouped by class, in class order
	classEnd   [numClasses]int32 // per class: end of its run in byClass
	classFirst [numClasses]int32 // per class: index of its first layer (len(shape) if none)
	classOrder [numClasses]uint8 // the classes by ascending classFirst

	folds atomic.Pointer[foldTable] // per-SASize tables, newest first
}

// sameShape reports whether two layers have the same shape: every
// workload.Layer field except Name, which no kernel reads. Layers of the same
// shape cost the same on every configuration, so a plan evaluates each shape
// once. The comparison is whole-struct, so a field added to Layer joins the
// shape automatically.
func sameShape(a, b *workload.Layer) bool {
	x := *a
	x.Name = b.Name
	return x == *b
}

// shapeHash mixes the shape fields of a layer (FNV-1a over words). Layers of
// the same shape hash equally; the plan builder confirms every hit with
// sameShape, so a field missing here would only weaken the hash, never merge
// distinct shapes.
func shapeHash(l *workload.Layer) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range [...]int{
		int(l.Kind), l.IFMX, l.IFMY, l.NIFM, l.OFMX, l.OFMY, l.NOFM,
		l.KX, l.KY, l.Stride, l.Pad, l.Groups, l.Copies, l.ActiveCopies,
	} {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}

// NewModelPlan builds the plan for a model: it groups the layers by shape and
// precomputes every configuration-independent per-shape quantity.
func NewModelPlan(m *workload.Model) *ModelPlan {
	n := len(m.Layers)
	p := &ModelPlan{
		model: m,
		shape: make([]int32, n),
		first: make([]int32, 0, n),
		units: make([]hw.Unit, 0, hw.NumUnits),
	}
	// Assign shape indices in first-occurrence order through an
	// open-addressing table of first-layer indices (+1; 0 is empty) at load
	// factor <= 1/2. One flat slice, so a plan build never grows a map.
	bits := 1
	for 1<<bits < 2*n {
		bits++
	}
	table := make([]int32, 1<<bits)
	mask := uint64(len(table) - 1)
	for i := range m.Layers {
		l := &m.Layers[i]
		for h := shapeHash(l) >> (64 - bits); ; h = (h + 1) & mask {
			j := table[h]
			if j == 0 {
				table[h] = int32(i) + 1
				p.shape[i] = int32(len(p.first))
				p.first = append(p.first, int32(i))
				break
			}
			if sameShape(&m.Layers[j-1], l) {
				p.shape[i] = p.shape[j-1]
				break
			}
		}
	}
	p.shapes = make([]layerPlan, len(p.first))
	seen := [hw.NumUnits]bool{}
	for cl := range p.classFirst {
		p.classFirst[cl] = int32(n)
	}
	for k, i := range p.first {
		lp := &p.shapes[k]
		*lp = layerPlanOf(m.Layers[i])
		if !seen[lp.unit] {
			seen[lp.unit] = true
			p.units = append(p.units, lp.unit)
		}
		if p.classes&(1<<lp.class) == 0 {
			p.classes |= 1 << lp.class
			p.classFirst[lp.class] = i
		}
		p.classEnd[lp.class]++ // the class's shape count, for now
	}
	// Counting sort of the shapes by class. Once filled, each class's next
	// free slot is the end of its run.
	var next [numClasses]int32
	for cl := 1; cl < len(next); cl++ {
		next[cl] = next[cl-1] + p.classEnd[cl-1]
	}
	p.byClass = make([]int32, len(p.shapes))
	for k := range p.shapes {
		cl := p.shapes[k].class
		p.byClass[next[cl]] = int32(k)
		next[cl]++
	}
	p.classEnd = next
	// Insertion sort of the classes by first layer.
	for cl := range p.classOrder {
		j := cl
		for ; j > 0 && p.classFirst[p.classOrder[j-1]] > p.classFirst[cl]; j-- {
			p.classOrder[j] = p.classOrder[j-1]
		}
		p.classOrder[j] = uint8(cl)
	}
	return p
}

// Model returns the model the plan was built for.
func (p *ModelPlan) Model() *workload.Model { return p.model }

// Shapes returns the number of distinct layer shapes: the kernel evaluations
// one Summary or EvaluateBatch call performs.
func (p *ModelPlan) Shapes() int { return len(p.shapes) }

// foldsFor returns the per-shape fold rows for one array dimension, computing
// and publishing them on first use. Across the 81-point space only the
// distinct SASize values (3) ever trigger a computation; every later call is
// one atomic load and a short list walk, with no lock.
func (p *ModelPlan) foldsFor(size int) []foldPlan {
	head := p.folds.Load()
	for ft := head; ft != nil; ft = ft.next {
		if ft.size == size {
			return ft.rows
		}
	}
	ft := &foldTable{size: size, rows: make([]foldPlan, len(p.shapes)), next: head}
	for k, i := range p.first {
		if p.shapes[k].class == classCompute {
			ft.rows[k] = foldPlanOf(p.model.Layers[i], size)
		}
	}
	if p.folds.CompareAndSwap(head, ft) {
		return ft.rows
	}
	// Another table was published first; it may be this very size.
	return p.foldsFor(size)
}

// supports reports whether the configuration covers every unit the model
// needs, without allocating (the plan equivalent of hw.Config.Supports).
func (p *ModelPlan) supports(c *hw.Config) bool {
	for _, u := range p.units {
		if !c.HasUnit(u) {
			return false
		}
	}
	return true
}

// check validates the batch size, mix sanity and unit coverage, mirroring
// EvaluateBatch's error contract.
func (p *ModelPlan) check(c *hw.Config, batch int) error {
	if batch < 1 {
		return fmt.Errorf("ppa: batch %d", batch)
	}
	if err := c.CheckMix(); err != nil {
		return err
	}
	if !p.supports(c) {
		return fmt.Errorf("ppa: config %v does not cover %s (coverage %.0f%%)",
			c.Point, p.model.Name, 100*c.Coverage(p.model))
	}
	return nil
}

// shapeEval evaluates single shapes of a plan on one configuration. It holds
// what an evaluation resolves once per call rather than once per shape: the
// catalogue, the fold rows and the per-MAC energy. The configuration itself
// is passed to cost, so it never escapes the caller's stack.
type shapeEval struct {
	p      *ModelPlan
	cat    *hw.Catalogue
	batch  int
	mix    bool
	ft     []foldPlan                 // homogeneous: rows for c.SASize
	mixFts [hw.MaxMixTypes][]foldPlan // mix: rows per active type's SASize
	macPJ  float64

	kernels int64 // kernel calls made (the sweep work counter)
}

// init resolves the per-call state for evaluating p's shapes of the given
// classes on c; the compute state is resolved only when compute shapes are
// among them.
func (e *shapeEval) init(p *ModelPlan, c *hw.Config, batch int, classes uint8) {
	e.p, e.cat, e.batch, e.mix = p, c.Catalogue(), batch, !c.Mix.IsZero()
	switch {
	case classes&(1<<classCompute) == 0:
	case e.mix:
		for ti := range e.cat.Chiplets {
			if c.Mix.Counts[ti] > 0 {
				e.mixFts[ti] = p.foldsFor(e.cat.Chiplets[ti].SASize)
			}
		}
	default:
		e.ft = p.foldsFor(c.SASize)
		e.macPJ = e.cat.SAFor(c.SASize, c.Precision).MacPJ
	}
}

// cost runs shape k's kernel on c, the configuration e was built for.
func (e *shapeEval) cost(k int, c *hw.Config) kernelOut {
	e.kernels++
	lp := &e.p.shapes[k]
	switch {
	case lp.class != classCompute:
		return elementKernel(lp, c, e.cat, e.batch)
	case e.mix:
		return mixComputeKernel(lp, mixFoldSource{tables: &e.mixFts, shape: k}, c, e.cat, e.batch)
	default:
		return computeKernelOn(lp, &e.ft[k], c.SASize, c.NSA, e.macPJ,
			e.cat.ClockGHz, e.cat.SRAMBytePJ, int64(c.Precision.Bytes()), int64(e.batch))
	}
}

// shapeTotals is the part of a shape's cost the summary totals add up.
type shapeTotals struct{ latencyS, energyPJ float64 }

// maxStackShapes is how many per-shape results Summary keeps on the stack.
// It covers every network of the paper sets (Densenet121 has the most
// shapes, 138); a plan with more takes one heap allocation per call.
const maxStackShapes = 160

// Carry is the per-shape cost state that successive SummaryWith calls on one
// plan share: each shape's latency and energy, their layer-order sums, and
// the key they were computed under. A shape's kernel reads only its own
// shape, the catalogue, the precision, the batch and the point axes of its
// class, so a call re-runs only the shapes whose inputs moved, and re-adds
// only the layers from the first one of a re-run class on. The zero value is
// an empty carry. A Carry is not safe for concurrent use; a sweep gives each
// worker its own.
type Carry struct {
	costs []shapeTotals // per shape of plan

	// Layer-order sums of costs: over the layers before each class's first
	// layer, and over all layers.
	pre   [numClasses]shapeTotals
	total shapeTotals

	// Key the costs were filled under; plan is nil while the carry is empty.
	plan  *ModelPlan
	cat   *hw.Catalogue
	prec  hw.Precision
	batch int
	pt    hw.Point

	// Work done through this carry, read by tests: kernel calls and layer
	// adds.
	kernels, adds int64
}

// stale returns the shape classes of p whose carried costs no longer hold
// for (c, batch): every class when the carry is empty or was filled under
// another plan, catalogue, precision or batch; otherwise the classes present
// in p whose own point axes moved.
func (cr *Carry) stale(p *ModelPlan, c *hw.Config, cat *hw.Catalogue, batch int) uint8 {
	if cr.plan != p || cr.cat != cat || cr.prec != c.Precision || cr.batch != batch {
		return allClasses
	}
	var d uint8
	if c.SASize != cr.pt.SASize || c.NSA != cr.pt.NSA || c.Mix != cr.pt.Mix {
		d |= 1 << classCompute
	}
	if c.NAct != cr.pt.NAct {
		d |= 1 << classAct
	}
	if c.NPool != cr.pt.NPool {
		d |= 1 << classPool
	}
	return d & p.classes
}

// Summary evaluates the scalar totals of the model on one configuration with
// zero steady-state allocation: SummaryWith on an empty carry kept on the
// stack, so every shape's kernel runs once and every layer is added.
func (p *ModelPlan) Summary(c hw.Config, batch int) (Summary, error) {
	var buf [maxStackShapes]shapeTotals
	cr := Carry{costs: buf[:0]}
	return p.SummaryWith(&c, batch, &cr)
}

// SummaryWith evaluates the scalar totals of the model on one configuration,
// reusing what cr carries from its previous call. It re-runs the kernel only
// for the shapes whose inputs changed: compute shapes when SASize, NSA or the
// mix moved, activation shapes when NAct moved, pooling shapes when NPool
// moved, and every shape when the plan, catalogue, precision or batch differ.
// It then adds the per-shape latency and energy in layer order, resuming
// from the carried sums over the layers before the first re-run one, which
// no re-run touched. A reused cost is the same kernel's result on the same
// inputs, and the sums are the same addends added in the same order, so the
// result is bit-identical to Summary, to EvaluateBatch's totals and to the
// direct per-layer path, whatever sequence of configurations cr has seen.
// Once cr has been filled for p, a call performs no allocation. SummaryWith
// only reads *c.
func (p *ModelPlan) SummaryWith(c *hw.Config, batch int, cr *Carry) (Summary, error) {
	if err := p.check(c, batch); err != nil {
		return Summary{}, err
	}
	cat := c.Catalogue()
	if dirty := cr.stale(p, c, cat, batch); dirty != 0 {
		if cap(cr.costs) < len(p.shapes) {
			cr.costs = make([]shapeTotals, len(p.shapes))
		}
		cr.costs = cr.costs[:len(p.shapes)]
		// Empty the key while refilling, so an interrupted refill leaves no
		// half-updated state behind a valid key.
		cr.plan = nil
		var e shapeEval
		e.init(p, c, batch, dirty)
		lo := int32(0)
		for cl, hi := range p.classEnd {
			if dirty&(1<<cl) != 0 {
				for _, k := range p.byClass[lo:hi] {
					out := e.cost(int(k), c)
					cr.costs[k] = shapeTotals{out.latencyS, out.energyPJ}
				}
			}
			lo = hi
		}
		cr.kernels += e.kernels
		p.addUp(cr, dirty)
	}
	cr.plan, cr.cat, cr.prec, cr.batch, cr.pt = p, cat, c.Precision, batch, c.Point
	s := Summary{LatencyS: cr.total.latencyS, DynamicPJ: cr.total.energyPJ, AreaMM2: c.AreaMM2()}
	leakW := cat.LeakageMWPerMM2 * 1e-3 * s.AreaMM2
	s.LeakagePJ = leakW * s.LatencyS * 1e12
	return s, nil
}

// addUp recomputes cr's layer-order sums after the shapes of the dirty
// classes were re-run. The layers before the first layer of a dirty class
// kept their costs, so it resumes from the sum carried at that layer and
// re-adds only the rest, refreshing the carried sums it passes.
func (p *ModelPlan) addUp(cr *Carry, dirty uint8) {
	start := int32(len(p.shape))
	var acc shapeTotals
	for cl, first := range p.classFirst {
		if dirty&(1<<cl) != 0 && first < start {
			start, acc = first, cr.pre[cl]
		}
	}
	if start == 0 {
		acc = shapeTotals{} // the carried sum may belong to another plan
	}
	i := start
	for _, cl := range p.classOrder {
		if first := p.classFirst[cl]; first > start {
			acc = p.addLayers(acc, cr.costs, i, first)
			cr.pre[cl], i = acc, first
		}
	}
	cr.total = p.addLayers(acc, cr.costs, i, int32(len(p.shape)))
	cr.adds += int64(len(p.shape)) - int64(start)
}

// addLayers adds the costs of layers [lo, hi) to acc in layer order.
func (p *ModelPlan) addLayers(acc shapeTotals, costs []shapeTotals, lo, hi int32) shapeTotals {
	for _, k := range p.shape[lo:hi] {
		acc.latencyS += costs[k].latencyS
		acc.energyPJ += costs[k].energyPJ
	}
	return acc
}

// Evaluate materializes the full per-layer evaluation at batch size 1.
func (p *ModelPlan) Evaluate(c hw.Config) (*Eval, error) {
	return p.EvaluateBatch(c, 1)
}

// EvaluateBatch materializes the full per-layer evaluation from the cached
// plans; identical to ppa.EvaluateBatch on the same inputs. Each shape's
// kernel runs once, at its first layer; repeats copy that layer's costs.
func (p *ModelPlan) EvaluateBatch(c hw.Config, batch int) (*Eval, error) {
	if err := p.check(&c, batch); err != nil {
		return nil, err
	}
	var se shapeEval
	se.init(p, &c, batch, allClasses)
	e := &Eval{Model: p.model, Config: c, AreaMM2: c.AreaMM2()}
	e.Layers = make([]LayerEval, len(p.shape))
	for i, k := range p.shape {
		le := &e.Layers[i]
		if f := int(p.first[k]); f == i {
			out := se.cost(int(k), &c)
			le.Unit = p.shapes[k].unit
			le.Executions, le.LatencyS, le.EnergyPJ, le.OutBytes = out.executions, out.latencyS, out.energyPJ, out.outBytes
		} else {
			*le = e.Layers[f]
		}
		le.Layer, le.Index = p.model.Layers[i], i
		e.LatencyS += le.LatencyS
		e.DynamicPJ += le.EnergyPJ
	}
	// Leakage across the whole chip for the whole run; the paper applies no
	// power gating, so idle units leak too.
	leakW := se.cat.LeakageMWPerMM2 * 1e-3 * e.AreaMM2
	e.LeakagePJ = leakW * e.LatencyS * 1e12
	return e, nil
}
