// Package sta performs static timing analysis of a buffered clock tree:
// per-sink arrival times (insertion delay), global skew, and transition
// (slew) at every pin. It is the ground truth the rest of the flow
// optimizes against.
//
// The network is evaluated stage by stage. A stage is the RC tree between
// one buffer's output and the next buffer inputs / clock sinks below it.
// Wire delay within a stage is Elmore on the π-model; wire slew is the
// PERI scaled-Elmore estimate, root-sum-square combined with the driver's
// output transition; buffer delay and output slew come from the NLDM
// tables of package cell, evaluated at the stage's total capacitance —
// the standard CTS-internal delay calculation.
package sta

import (
	"errors"
	"fmt"
	"math"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/obs"
	"smartndr/internal/rctree"
	"smartndr/internal/tech"
)

// Result holds one analysis of a clock tree.
type Result struct {
	// Arrival[v] is the arrival time at node v's *input* pin: for sink
	// nodes the clock arrival at the flip-flop, for buffered nodes the
	// arrival at the buffer input, s.
	Arrival []float64
	// Slew[v] is the transition at node v's input pin, s.
	Slew []float64
	// StageCap[v] is the capacitance the buffer at node v drives, F.
	// Entries are meaningful only at buffered nodes; Drivers lists those
	// nodes, so `for _, d := range r.Drivers { r.StageCap[d] }` is the
	// canonical (and deterministic) way to walk the stages.
	StageCap []float64
	// Drivers lists the buffered node indices in ascending node order.
	Drivers []int
	// DownCap[v] is the π-lumped downstream capacitance at and below v
	// *within its stage* (buffer inputs terminate the accumulation), F.
	// It is exactly the load an extra micron of wire on v's feeding edge
	// would drive — the skew-repair snaking pass uses it.
	DownCap []float64

	// Capacitance inventory, F (for the power model).
	WireCap     float64 // all wire under assigned rules
	SinkCap     float64 // sink pins
	BufInCap    float64 // buffer input pins
	BufIntCap   float64 // buffer internal switching cap
	LeakageTot  float64 // W, summed buffer leakage
	BufferCount int

	sinkNodes []int
}

// MaxSinkArrival returns the largest sink arrival (insertion delay).
func (r *Result) MaxSinkArrival() float64 {
	hi := math.Inf(-1)
	for _, v := range r.sinkNodes {
		hi = math.Max(hi, r.Arrival[v])
	}
	return hi
}

// Skew returns max−min sink arrival.
func (r *Result) Skew() float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range r.sinkNodes {
		lo = math.Min(lo, r.Arrival[v])
		hi = math.Max(hi, r.Arrival[v])
	}
	if len(r.sinkNodes) == 0 {
		return 0
	}
	return hi - lo
}

// WorstSlew returns the largest transition at any sink or buffer input,
// and the node where it occurs.
func (r *Result) WorstSlew() (float64, int) {
	worst, at := 0.0, -1
	for v, s := range r.Slew {
		if s > worst {
			worst, at = s, v
		}
	}
	return worst, at
}

// SlewViolations counts pins whose transition exceeds the limit.
func (r *Result) SlewViolations(limit float64) int {
	n := 0
	for _, s := range r.Slew {
		if s > limit {
			n++
		}
	}
	return n
}

// SinkArrivals returns arrival times indexed by sink (not node) order.
func (r *Result) SinkArrivals(t *ctree.Tree) []float64 {
	out := make([]float64, len(t.Sinks))
	for _, v := range r.sinkNodes {
		out[t.Nodes[v].SinkIdx] = r.Arrival[v]
	}
	return out
}

// Overrides optionally replace the electrical view of the tree for
// variation analysis: per-edge parasitics (indexed by node, replacing the
// rule-derived values) and a per-node multiplicative buffer delay scale.
// Nil slices fall back to nominal values.
type Overrides struct {
	EdgeR    []float64 // Ω per edge; nil → from rules
	EdgeC    []float64 // F per edge; nil → from rules
	BufScale []float64 // delay multiplier per buffered node; nil → 1
}

// Analyze evaluates the tree. inSlew is the transition of the clock signal
// arriving at the root buffer's input. The root node must carry a buffer
// (the source driver); every other buffer must lie on a path below it.
func Analyze(t *ctree.Tree, te *tech.Tech, lib *cell.Library, inSlew float64) (*Result, error) {
	return AnalyzeTr(t, te, lib, inSlew, nil, nil)
}

// AnalyzeOv is Analyze with electrical overrides (see Overrides).
func AnalyzeOv(t *ctree.Tree, te *tech.Tech, lib *cell.Library, inSlew float64, ov *Overrides) (*Result, error) {
	return AnalyzeTr(t, te, lib, inSlew, ov, nil)
}

// AnalyzeTr is AnalyzeOv with instrumentation: the run is split into an
// "rc_build" span (levelization and nominal parasitic extraction) and a
// "propagate" span (load accumulation and the timing walk), so profiles
// show where analysis time goes. A nil tracer adds no overhead.
//
// Every call allocates a fresh Result. Callers analyzing the same tree
// repeatedly (Monte Carlo trials, optimizer inner loops) should hold an
// Analyzer instead, which reuses all working storage.
func AnalyzeTr(t *ctree.Tree, te *tech.Tech, lib *cell.Library, inSlew float64, ov *Overrides, tr *obs.Tracer) (*Result, error) {
	return NewAnalyzer(te, lib).analyze(t, inSlew, ov, tr)
}

// Analyzer runs repeated analyses without per-call allocation: the
// working buffers and the Result itself are preallocated once and reused
// on every Analyze call. An Analyzer is not safe for concurrent use —
// give each worker goroutine its own.
//
// An analysis is two steps. bind levelizes the tree — a pre-order node
// list plus compact parent/kids/buffer arrays — and computes everything
// that depends on the tree alone: endpoint caps, the capacitance and
// buffer inventory, the sink and driver lists, and the nominal edge
// parasitics. propagate then accumulates stage loads in one reverse loop
// over the list and times the tree in one forward loop. Analyze runs
// both; Reanalyze runs only propagate, on the tree bound last.
type Analyzer struct {
	te  *tech.Tech
	lib *cell.Library
	res Result

	// Levelized view of the bound tree (written by bind).
	bound   bool
	order   []int32    // pre-order node list, root first
	parent  []int32    // per node; ctree.NoNode at the root
	kids    [][2]int32 // per node; ctree.NoNode where absent
	buf     []int32    // per node: library buffer index, or ctree.NoBuf
	drv     []int32    // owning stage driver per node (the root owns itself)
	wireCap float64    // nominal WireCap, restored when EdgeC is not overridden
	walk    []int32    // bind's DFS stack

	f64 []float64 // backing block of every per-node float64 array
	i32 []int32   // backing block of every per-node int32 array

	edgeR, edgeC []float64 // nominal per-edge parasitics under assigned rules
	endCap       []float64 // L[v]: endpoint cap v presents to its stage
	downCap      []float64 // D[v]: π-lumped cap at-and-below v in-stage
	elm          []float64 // Elmore delay from stage driver output to v
	// Stage driver outputs, indexed by driver node (written in startStage
	// before any descendant reads them — no clearing needed).
	stageOutArr, stageOutSlew []float64
	// stageDelay[v] is the driver delay computed for buffered node v by the
	// most recent analysis (before any BufScale override). The incremental
	// engine reuses it to re-derive stageOutArr for stages whose input slew
	// and load did not change, bitwise-identically to a fresh startStage.
	stageDelay []float64
}

// NewAnalyzer returns an analyzer for the technology and library. The
// first Analyze call sizes the buffers; later calls on same-sized trees
// are allocation-free.
func NewAnalyzer(te *tech.Tech, lib *cell.Library) *Analyzer {
	return &Analyzer{te: te, lib: lib}
}

// Analyze evaluates the tree, reusing the analyzer's storage. The
// returned Result (including its DownCap and StageCap slices) is
// owned by the analyzer and overwritten by the next call — clone
// whatever must outlive it.
func (a *Analyzer) Analyze(t *ctree.Tree, inSlew float64, ov *Overrides) (*Result, error) {
	return a.analyze(t, inSlew, ov, nil)
}

// Reanalyze re-times the tree bound by the last Analyze under a new input
// slew and overrides, skipping bind: no validation, levelization or
// nominal extraction, only the load and timing loops. The result is
// bitwise identical to Analyze of the same tree with the same arguments.
//
// Contract: the caller has not modified that tree since it was bound —
// Reanalyze never reads it, so an edit would go unseen. It is meant for
// Monte Carlo trials, which vary only the overrides. Reanalyze fails if
// no tree is bound: before the first Analyze, or after an Analyze whose
// tree was rejected. The Result has the same ownership rules as Analyze's.
func (a *Analyzer) Reanalyze(inSlew float64, ov *Overrides) (*Result, error) {
	if !a.bound {
		return nil, errors.New("sta: Reanalyze without a bound tree")
	}
	return a.propagate(inSlew, ov)
}

func (a *Analyzer) analyze(t *ctree.Tree, inSlew float64, ov *Overrides, tr *obs.Tracer) (*Result, error) {
	sp := tr.Start("sta.analyze", obs.I("nodes", len(t.Nodes)))
	defer sp.End()
	rcSpan := tr.Start("rc_build")
	err := a.bind(t)
	rcSpan.End()
	if err != nil {
		return nil, err
	}
	propSpan := tr.Start("propagate")
	defer propSpan.End()
	return a.propagate(inSlew, ov)
}

// resize readies the analyzer's buffers for an n-node tree. The per-node
// arrays are carved from three backing blocks, so sizing costs three
// allocations rather than one per array.
func (a *Analyzer) resize(n int) {
	const nf, ni = 11, 5 // float64 and int32 arrays per node
	if cap(a.f64) < nf*n {
		a.f64 = make([]float64, nf*n)
		a.i32 = make([]int32, ni*n)
		a.kids = make([][2]int32, n)
	}
	f, i := a.f64, a.i32
	nextF := func() []float64 { s := f[:n:n]; f = f[n:]; return s }
	nextI := func() []int32 { s := i[:n:n]; i = i[n:]; return s }
	a.edgeR, a.edgeC, a.endCap, a.downCap = nextF(), nextF(), nextF(), nextF()
	a.elm, a.stageOutArr, a.stageOutSlew, a.stageDelay = nextF(), nextF(), nextF(), nextF()
	a.res.Arrival, a.res.Slew, a.res.StageCap = nextF(), nextF(), nextF()
	a.parent, a.buf, a.drv = nextI(), nextI(), nextI()
	a.order, a.walk = nextI()[:0], nextI()[:0] // never outgrow n
	a.kids = a.kids[:n]
	clear(a.res.StageCap)
	a.res.Drivers = a.res.Drivers[:0]
	a.res.DownCap = a.downCap
	a.res.sinkNodes = a.res.sinkNodes[:0]
	a.res.WireCap, a.res.SinkCap, a.res.BufInCap, a.res.BufIntCap = 0, 0, 0, 0
	a.res.LeakageTot = 0
	a.res.BufferCount = 0
}

// bind validates and levelizes t and computes every per-tree constant
// of the analysis. On error the analyzer is left unbound.
func (a *Analyzer) bind(t *ctree.Tree) error {
	te, lib := a.te, a.lib
	a.bound = false
	if t.Root == ctree.NoNode {
		return errors.New("sta: tree has no root")
	}
	if t.Nodes[t.Root].BufIdx == ctree.NoBuf {
		return errors.New("sta: root carries no driver buffer")
	}
	n := len(t.Nodes)
	a.resize(n)
	res := &a.res

	// Per-node topology, nominal parasitics, endpoint caps and inventory,
	// all accumulated in node-index order.
	wireCap := 0.0
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		a.parent[i] = int32(nd.Parent)
		a.kids[i] = [2]int32{int32(nd.Kids[0]), int32(nd.Kids[1])}
		a.buf[i] = int32(nd.BufIdx)
		if nd.Parent == ctree.NoNode {
			a.edgeR[i], a.edgeC[i] = 0, 0
		} else {
			if nd.Rule < 0 || nd.Rule >= te.NumRules() {
				return fmt.Errorf("sta: node %d has out-of-range rule %d", i, nd.Rule)
			}
			a.edgeR[i] = te.WireR(nd.EdgeLen, nd.Rule)
			a.edgeC[i] = te.WireC(nd.EdgeLen, nd.Rule)
			wireCap += a.edgeC[i]
		}
		// L[v]: endpoint cap v presents to its parent's stage.
		a.endCap[i] = 0
		switch {
		case nd.BufIdx != ctree.NoBuf:
			if nd.BufIdx < 0 || nd.BufIdx >= len(lib.Buffers) {
				return fmt.Errorf("sta: node %d has out-of-range buffer %d", i, nd.BufIdx)
			}
			b := &lib.Buffers[nd.BufIdx]
			a.endCap[i] = b.InputCap
			res.BufInCap += b.InputCap
			res.BufIntCap += b.InternalCap
			res.LeakageTot += b.Leakage
			res.BufferCount++
			res.Drivers = append(res.Drivers, i)
		case t.IsLeaf(i):
			a.endCap[i] = t.Sinks[nd.SinkIdx].Cap
			res.SinkCap += a.endCap[i]
		}
		if nd.SinkIdx != ctree.NoSink {
			res.sinkNodes = append(res.sinkNodes, i)
		}
	}
	a.wireCap = wireCap

	// Pre-order list (parents before children) with each node's stage
	// driver: a buffered parent drives its kids, an unbuffered one passes
	// its own driver down.
	root := int32(t.Root)
	a.drv[root] = root
	order := a.order[:0]
	w := append(a.walk[:0], root)
	for len(w) > 0 {
		v := w[len(w)-1]
		w = w[:len(w)-1]
		order = append(order, v)
		for _, k := range a.kids[v] {
			if k == ctree.NoNode {
				continue
			}
			if a.buf[v] != ctree.NoBuf {
				a.drv[k] = v
			} else {
				a.drv[k] = a.drv[v]
			}
			w = append(w, k)
		}
	}
	a.order, a.walk = order, w[:0]
	a.bound = true
	return nil
}

// propagate times the bound tree: stage loads in one reverse pass over
// the pre-order list (children before parents), then arrivals and slews
// in one forward pass (parents before children).
func (a *Analyzer) propagate(inSlew float64, ov *Overrides) (*Result, error) {
	if inSlew <= 0 {
		return nil, fmt.Errorf("sta: non-positive input slew %g", inSlew)
	}
	res := &a.res
	edgeR, edgeC := a.edgeR, a.edgeC
	var bufScale []float64
	res.WireCap = a.wireCap
	if ov != nil {
		if ov.EdgeR != nil {
			edgeR = ov.EdgeR
		}
		if ov.EdgeC != nil {
			edgeC = ov.EdgeC
			wc := 0.0
			for i, p := range a.parent {
				if p != ctree.NoNode {
					wc += edgeC[i]
				}
			}
			res.WireCap = wc
		}
		bufScale = ov.BufScale
	}

	// D[v]: π-model lumped cap at-and-below v within the stage owning v's
	// feeding edge. A buffered node starts a new stage, so its kids load
	// StageCap instead of D.
	D, L, kids, buf := a.downCap, a.endCap, a.kids, a.buf
	for i := len(a.order) - 1; i >= 0; i-- {
		v := a.order[i]
		ev := edgeC[v]
		if i == 0 {
			ev = 0 // the root has no feeding edge, whatever the overrides say
		}
		dv := L[v] + ev/2
		k0, k1 := kids[v][0], kids[v][1]
		if buf[v] != ctree.NoBuf {
			load := 0.0
			if k0 != ctree.NoNode {
				load += D[k0] + edgeC[k0]/2
			}
			if k1 != ctree.NoNode {
				load += D[k1] + edgeC[k1]/2
			}
			res.StageCap[v] = load
		} else {
			if k0 != ctree.NoNode {
				dv += D[k0] + edgeC[k0]/2
			}
			if k1 != ctree.NoNode {
				dv += D[k1] + edgeC[k1]/2
			}
		}
		D[v] = dv
	}

	// Timing. elm[v] is the Elmore delay from the owning stage driver's
	// output pin to v; stageOutArr/stageOutSlew are indexed by driver node.
	elm, parent, drv := a.elm, a.parent, a.drv
	stageOutArr, stageOutSlew := a.stageOutArr, a.stageOutSlew
	root := a.order[0]
	res.Arrival[root] = 0
	res.Slew[root] = inSlew
	elm[root] = 0
	a.startStage(root, bufScale)
	for _, v := range a.order[1:] {
		p, d := parent[v], drv[v]
		base := 0.0
		if p != d {
			base = elm[p]
		}
		e := base + edgeR[v]*D[v]
		elm[v] = e
		res.Arrival[v] = stageOutArr[d] + e
		res.Slew[v] = math.Hypot(stageOutSlew[d], rctree.Ln9*e)
		if buf[v] != ctree.NoBuf {
			a.startStage(v, bufScale)
		}
	}
	return res, nil
}

// startStage evaluates buffered node v's NLDM tables at its input slew and
// stage load, and records the stage's output arrival and slew. bufScale,
// when non-nil, scales the delay (variation overrides); stageDelay keeps
// the unscaled value.
func (a *Analyzer) startStage(v int32, bufScale []float64) {
	res := &a.res
	b := &a.lib.Buffers[a.buf[v]]
	d, s := b.DelaySlewAt(res.Slew[v], res.StageCap[v])
	a.stageDelay[v] = d
	if bufScale != nil {
		d *= bufScale[v]
	}
	a.stageOutArr[v] = res.Arrival[v] + d
	a.stageOutSlew[v] = s
}

// TotalSwitchedCap returns the capacitance toggling every clock cycle:
// wire, sink pins, buffer inputs, and buffer internal cap.
func (r *Result) TotalSwitchedCap() float64 {
	return r.WireCap + r.SinkCap + r.BufInCap + r.BufIntCap
}
