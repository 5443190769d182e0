// Package variation quantifies a clock network's robustness to process
// variation with Monte Carlo analysis — the second half of the NDR story:
// wide wires do not only sharpen transitions, they also *attenuate* the
// impact of lithographic critical-dimension (CD) variation, because an
// absolute width error δ is a smaller relative error on a 2W wire than on
// a 1W wire. Smart NDR assignment must preserve (most of) that robustness
// while shedding the capacitance, and this package produces the skew
// distributions that show whether it does.
//
// The variation model is the standard grid-correlated one: each sample
// draws a coarse spatial field (bilinear-interpolated Gaussian grid) plus
// white per-element noise; wire width errors perturb resistance as
// w/(w+δ) and area capacitance as +ca·δ, and buffer delays scale by a
// correlated relative factor.
package variation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/geom"
	"smartndr/internal/obs"
	"smartndr/internal/par"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
)

// Params configure the Monte Carlo run.
type Params struct {
	// WidthSigma is the 1σ absolute wire CD variation, µm (e.g. 0.004 for
	// 4 nm at a 45 nm-class node).
	WidthSigma float64
	// BufSigma is the 1σ relative buffer delay variation.
	BufSigma float64
	// SpatialFrac is the fraction of variance carried by the spatially
	// correlated field (the rest is white), in [0, 1].
	SpatialFrac float64
	// GridCells is the resolution of the correlated field (default 8).
	GridCells int
	// Samples is the Monte Carlo sample count.
	Samples int
	// Seed makes the run deterministic.
	Seed int64
	// InSlew is the root input transition, s (default 40 ps).
	InSlew float64
	// Workers bounds trial-level parallelism: 0 (or negative) uses
	// runtime.GOMAXPROCS(0); 1 forces the serial path. The determinism
	// contract: trial i draws from an independent RNG substream derived
	// from (Seed, i) alone, so results are bit-identical for every
	// Workers value — Workers is purely a throughput knob.
	Workers int
}

func (p Params) withDefaults() Params {
	if p.GridCells == 0 {
		p.GridCells = 8
	}
	if p.InSlew == 0 {
		p.InSlew = 40e-12
	}
	return p
}

// Validate checks the parameters.
func (p Params) Validate() error {
	p = p.withDefaults()
	switch {
	case p.WidthSigma < 0 || p.BufSigma < 0:
		return errors.New("variation: negative sigma")
	case p.SpatialFrac < 0 || p.SpatialFrac > 1:
		return fmt.Errorf("variation: spatial fraction %g out of [0,1]", p.SpatialFrac)
	case p.Samples <= 0:
		return fmt.Errorf("variation: non-positive sample count %d", p.Samples)
	case p.GridCells <= 0:
		return fmt.Errorf("variation: non-positive grid resolution %d", p.GridCells)
	}
	return nil
}

// Defaults returns a 45 nm-class variation corner: 4 nm CD sigma, 3%
// buffer sigma, 60% spatially correlated, 500 samples.
func Defaults(seed int64) Params {
	return Params{
		WidthSigma:  0.004,
		BufSigma:    0.03,
		SpatialFrac: 0.6,
		GridCells:   8,
		Samples:     500,
		Seed:        seed,
	}
}

// Sample is one Monte Carlo outcome.
type Sample struct {
	Skew      float64 // s
	WorstSlew float64 // s
	Insertion float64 // s, max sink arrival
}

// Stats summarizes a Monte Carlo run.
type Stats struct {
	Samples   []Sample
	MeanSkew  float64
	StdSkew   float64
	P95Skew   float64
	MaxSkew   float64
	WorstSlew float64 // max over samples
}

// field is a bilinear-interpolated Gaussian grid over the die.
type field struct {
	vals       []float64
	cells      int
	bb         geom.BBox
	invW, invH float64
}

func newField(rng *rand.Rand, cells int, bb geom.BBox) *field {
	f := emptyField(cells, bb)
	f.fill(rng)
	return f
}

// emptyField allocates the grid without drawing values; fill redraws it
// in place so per-trial scratch reuse skips the allocation.
func emptyField(cells int, bb geom.BBox) *field {
	f := &field{vals: make([]float64, (cells+1)*(cells+1)), cells: cells, bb: bb}
	w := bb.Width()
	h := bb.Height()
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	f.invW, f.invH = 1/w, 1/h
	return f
}

// fill redraws every grid value from rng.
func (f *field) fill(rng *rand.Rand) {
	for i := range f.vals {
		f.vals[i] = rng.NormFloat64()
	}
}

// fieldPos is a die location resolved against a field grid: the index of
// its cell's lower-left grid value and the offsets within the cell. It
// depends only on the grid geometry, so one fieldPos serves every field
// drawn over the same die.
type fieldPos struct {
	idx    int32
	dx, dy float64
}

// locate resolves a die location to its grid cell.
func (f *field) locate(p geom.Point) fieldPos {
	fx := geom.Clamp((p.X-f.bb.MinX)*f.invW, 0, 1) * float64(f.cells)
	fy := geom.Clamp((p.Y-f.bb.MinY)*f.invH, 0, 1) * float64(f.cells)
	x0 := int(fx)
	y0 := int(fy)
	if x0 >= f.cells {
		x0 = f.cells - 1
	}
	if y0 >= f.cells {
		y0 = f.cells - 1
	}
	return fieldPos{idx: int32(y0*(f.cells+1) + x0), dx: fx - float64(x0), dy: fy - float64(y0)}
}

// sample interpolates the field bilinearly at a located position.
func (f *field) sample(q fieldPos) float64 {
	n := f.cells + 1
	i := int(q.idx)
	dx, dy := q.dx, q.dy
	v00 := f.vals[i]
	v01 := f.vals[i+1]
	v10 := f.vals[i+n]
	v11 := f.vals[i+n+1]
	return v00*(1-dx)*(1-dy) + v01*dx*(1-dy) + v10*(1-dx)*dy + v11*dx*dy
}

// MonteCarlo runs the analysis. The tree is not modified.
//
// Determinism contract: trial i draws every random number from a
// dedicated substream seeded by par.SubstreamSeed(p.Seed, i), so the
// sample sequence depends only on the Params — not on Workers, core
// count, or scheduling. Two runs with equal Params produce identical
// Stats.
func MonteCarlo(t *ctree.Tree, te *tech.Tech, lib *cell.Library, p Params) (*Stats, error) {
	return MonteCarloTr(t, te, lib, p, nil)
}

// trialScratch is the per-worker reusable state: Gaussian fields, the
// override buffers, the trial RNG, and an STA analyzer with preallocated
// storage. One worker runs one trial at a time, so nothing here needs
// locking.
type trialScratch struct {
	fw, fb *field // width and buffer spatial fields
	ov     sta.Overrides
	src    par.Source
	rng    *rand.Rand
	an     *sta.Analyzer
	bound  bool // an has bound the tree; later trials Reanalyze
}

// nodeCoef holds the trial-invariant sampling inputs of one node, built
// once per run and shared read-only by every worker, so a trial does no
// per-node geometry, rule lookup or wire-model arithmetic of its own.
type nodeCoef struct {
	edge, buf       fieldPos // feeding-edge midpoint and buffer location
	w, floor        float64  // drawn wire width (µm) and its -0.8·w error floor
	wr, wc          float64  // WireR·w (Ω·µm) and nominal WireC (F)
	edgeLen         float64  // µm
	hasEdge, hasBuf bool
}

// nodeCoefs builds the per-node coefficients of t over the field grid g,
// in node-index order — the order trials draw their random numbers in.
func nodeCoefs(t *ctree.Tree, te *tech.Tech, g *field) ([]nodeCoef, error) {
	coef := make([]nodeCoef, len(t.Nodes))
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		c := &coef[i]
		if nd.Parent != ctree.NoNode {
			if nd.Rule < 0 || nd.Rule >= te.NumRules() {
				return nil, fmt.Errorf("variation: node %d has out-of-range rule %d", i, nd.Rule)
			}
			w := te.Layer.MinWidth * te.Rules[nd.Rule].WMult
			c.hasEdge = true
			c.edge = g.locate(geom.Midpoint(nd.Loc, t.Nodes[nd.Parent].Loc))
			c.w, c.floor = w, -0.8*w
			c.wr = te.WireR(nd.EdgeLen, nd.Rule) * w
			c.wc = te.WireC(nd.EdgeLen, nd.Rule)
			c.edgeLen = nd.EdgeLen
		}
		if nd.BufIdx != ctree.NoBuf {
			c.hasBuf = true
			c.buf = g.locate(nd.Loc)
		}
	}
	return coef, nil
}

// MonteCarloTr is MonteCarlo with instrumentation: each trial records a
// span (so timing outliers are visible in a trace), and the run gauges
// acceptance against the technology skew bound. A nil tracer adds no
// overhead. Trial spans are attached to the run span explicitly — never
// to the tracer's ambient span stack — so the span tree stays
// well-formed when trials run on many goroutines.
//
// The tree is bound once per worker: its first trial runs a full
// sta Analyze, later ones only Reanalyze under new overrides, and the
// per-node sampling coefficients are computed once for the whole run.
// Trials draw their random numbers in the same order and evaluate the
// same float expressions either way, so Stats are bit-identical to a
// per-trial full analysis (pinned by TestMonteCarloGoldenStats).
func MonteCarloTr(t *ctree.Tree, te *tech.Tech, lib *cell.Library, p Params, tr *obs.Tracer) (*Stats, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	workers := par.Workers(p.Workers)
	sp := tr.Start("variation.montecarlo",
		obs.I("samples", p.Samples), obs.I("workers", workers))
	defer sp.End()
	bb := geom.NewEmptyBBox()
	for i := range t.Nodes {
		bb.Extend(t.Nodes[i].Loc)
	}
	n := len(t.Nodes)
	spat := math.Sqrt(p.SpatialFrac)
	white := math.Sqrt(1 - p.SpatialFrac)
	cArea := te.Layer.CArea
	if workers > p.Samples {
		workers = p.Samples
	}
	coef, err := nodeCoefs(t, te, emptyField(p.GridCells, bb))
	if err != nil {
		return nil, err
	}
	scratch := make([]*trialScratch, workers)
	samples := make([]Sample, p.Samples)
	//lint:allow ctxflow deterministic Monte-Carlo batch; cancelling mid-run would violate the seeded-substream reproducibility contract
	err = par.ForEachWorker(context.Background(), workers, p.Samples, func(w, s int) error {
		sc := scratch[w]
		if sc == nil {
			sc = &trialScratch{
				fw: emptyField(p.GridCells, bb),
				fb: emptyField(p.GridCells, bb),
				ov: sta.Overrides{
					EdgeR:    make([]float64, n),
					EdgeC:    make([]float64, n),
					BufScale: make([]float64, n),
				},
				an: sta.NewAnalyzer(te, lib),
			}
			// Entries trials never draw keep these values: zero
			// parasitics on the root's (absent) edge, unit delay scale
			// on unbuffered nodes.
			for i := range sc.ov.BufScale {
				sc.ov.BufScale[i] = 1
			}
			sc.rng = rand.New(&sc.src)
			scratch[w] = sc
		}
		tsp := sp.Child("trial", obs.I("trial", s))
		defer tsp.End() // must fire on error paths too — see TestMonteCarloSpanLeak
		sc.src.Seed(par.SubstreamSeed(p.Seed, s))
		rng := sc.rng
		sc.fw.fill(rng)
		sc.fb.fill(rng)
		for i := range coef {
			c := &coef[i]
			if c.hasEdge {
				delta := p.WidthSigma * (spat*sc.fw.sample(c.edge) + white*rng.NormFloat64())
				if delta < c.floor {
					delta = c.floor // physical floor: wire cannot vanish
				}
				sc.ov.EdgeR[i] = c.wr / (c.w + delta)
				sc.ov.EdgeC[i] = c.wc + cArea*delta*c.edgeLen
			}
			if c.hasBuf {
				g := spat*sc.fb.sample(c.buf) + white*rng.NormFloat64()
				sc.ov.BufScale[i] = math.Max(0.5, 1+p.BufSigma*g)
			}
		}
		var res *sta.Result
		var err error
		if sc.bound {
			res, err = sc.an.Reanalyze(p.InSlew, &sc.ov)
		} else {
			res, err = sc.an.Analyze(t, p.InSlew, &sc.ov)
			sc.bound = err == nil
		}
		if err != nil {
			return err
		}
		worst, _ := res.WorstSlew()
		skew := res.Skew()
		samples[s] = Sample{
			Skew:      skew,
			WorstSlew: worst,
			Insertion: res.MaxSinkArrival(),
		}
		tsp.Set("skew_ps", skew*1e12)
		tr.Add("mc.trials", 1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	st := &Stats{Samples: samples}
	st.finalize()
	tr.Gauge("mc.mean_skew_ps", st.MeanSkew*1e12)
	tr.Gauge("mc.p95_skew_ps", st.P95Skew*1e12)
	tr.Gauge("mc.yield_at_bound", st.YieldAt(te.MaxSkew))
	sp.Set("p95_skew_ps", st.P95Skew*1e12)
	return st, nil
}

func (st *Stats) finalize() {
	if len(st.Samples) == 0 {
		return
	}
	skews := make([]float64, len(st.Samples))
	var sum, sumSq float64
	for i, s := range st.Samples {
		skews[i] = s.Skew
		sum += s.Skew
		sumSq += s.Skew * s.Skew
		if s.Skew > st.MaxSkew {
			st.MaxSkew = s.Skew
		}
		if s.WorstSlew > st.WorstSlew {
			st.WorstSlew = s.WorstSlew
		}
	}
	n := float64(len(st.Samples))
	st.MeanSkew = sum / n
	if v := sumSq/n - st.MeanSkew*st.MeanSkew; v > 0 {
		st.StdSkew = math.Sqrt(v)
	}
	sort.Float64s(skews)
	st.P95Skew = Quantile(skews, 0.95)
}

// YieldAt returns the fraction of samples whose skew is within the bound.
func (st *Stats) YieldAt(bound float64) float64 {
	if len(st.Samples) == 0 {
		return 0
	}
	ok := 0
	for _, s := range st.Samples {
		if s.Skew <= bound {
			ok++
		}
	}
	return float64(ok) / float64(len(st.Samples))
}
