package sta_test

import (
	"math"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/rctree"
	"smartndr/internal/sta"
	"smartndr/internal/tech"
)

// refResult is what referenceAnalyze computes.
type refResult struct {
	arrival, slew, stageCap, downCap               []float64
	wireCap, sinkCap, bufInCap, bufIntCap, leakage float64
	buffers                                        int
}

// referenceAnalyze is the timing analysis written as plainly as possible —
// recursive-order walks straight over the ctree, no levelization and no
// reuse — as the test oracle for the levelized kernel. Its float
// expressions and their association match the package's, so agreement is
// expected bit for bit.
func referenceAnalyze(t *ctree.Tree, te *tech.Tech, lib *cell.Library, inSlew float64, ov *sta.Overrides) *refResult {
	n := len(t.Nodes)
	r := &refResult{
		arrival: make([]float64, n), slew: make([]float64, n),
		stageCap: make([]float64, n), downCap: make([]float64, n),
	}
	edgeR, edgeC, endCap := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, nd := range t.Nodes {
		if nd.Parent == ctree.NoNode {
			continue
		}
		edgeR[i], edgeC[i] = te.WireR(nd.EdgeLen, nd.Rule), te.WireC(nd.EdgeLen, nd.Rule)
		if ov != nil && ov.EdgeR != nil {
			edgeR[i] = ov.EdgeR[i]
		}
		if ov != nil && ov.EdgeC != nil {
			edgeC[i] = ov.EdgeC[i]
		}
		r.wireCap += edgeC[i]
	}
	for i, nd := range t.Nodes {
		switch {
		case nd.BufIdx != ctree.NoBuf:
			b := &lib.Buffers[nd.BufIdx]
			endCap[i] = b.InputCap
			r.bufInCap += b.InputCap
			r.bufIntCap += b.InternalCap
			r.leakage += b.Leakage
			r.buffers++
		case t.IsLeaf(i):
			endCap[i] = t.Sinks[nd.SinkIdx].Cap
			r.sinkCap += endCap[i]
		}
	}
	t.PostOrder(func(v int) {
		nd := &t.Nodes[v]
		r.downCap[v] = endCap[v] + edgeC[v]/2
		load := 0.0
		for _, k := range nd.Kids {
			if k == ctree.NoNode {
				continue
			}
			if nd.BufIdx != ctree.NoBuf {
				load += r.downCap[k] + edgeC[k]/2
			} else {
				r.downCap[v] += r.downCap[k] + edgeC[k]/2
			}
		}
		if nd.BufIdx != ctree.NoBuf {
			r.stageCap[v] = load
		}
	})
	drv, elm := make([]int, n), make([]float64, n)
	outArr, outSlew := make([]float64, n), make([]float64, n)
	start := func(v int) {
		b := &lib.Buffers[t.Nodes[v].BufIdx]
		d := b.DelayAt(r.slew[v], r.stageCap[v])
		if ov != nil && ov.BufScale != nil {
			d *= ov.BufScale[v]
		}
		outArr[v] = r.arrival[v] + d
		outSlew[v] = b.OutSlewAt(r.slew[v], r.stageCap[v])
	}
	t.PreOrder(func(v int) {
		if v == t.Root {
			r.slew[v] = inSlew
			start(v)
			return
		}
		p := t.Nodes[v].Parent
		d, base := p, 0.0
		if t.Nodes[p].BufIdx == ctree.NoBuf {
			d, base = drv[p], elm[p]
		}
		drv[v] = d
		elm[v] = base + edgeR[v]*r.downCap[v]
		r.arrival[v] = outArr[d] + elm[v]
		r.slew[v] = math.Hypot(outSlew[d], rctree.Ln9*elm[v])
		if t.Nodes[v].BufIdx != ctree.NoBuf {
			start(v)
		}
	})
	return r
}

// matchesReference asserts got equals the oracle bit for bit.
func matchesReference(t *testing.T, tag string, got *sta.Result, want *refResult) {
	t.Helper()
	bits := math.Float64bits
	for v := range want.arrival {
		if bits(got.Arrival[v]) != bits(want.arrival[v]) || bits(got.Slew[v]) != bits(want.slew[v]) ||
			bits(got.DownCap[v]) != bits(want.downCap[v]) || bits(got.StageCap[v]) != bits(want.stageCap[v]) {
			t.Fatalf("%s: node %d diverges from the reference: arrival %.17g/%.17g slew %.17g/%.17g downcap %.17g/%.17g stagecap %.17g/%.17g",
				tag, v, got.Arrival[v], want.arrival[v], got.Slew[v], want.slew[v],
				got.DownCap[v], want.downCap[v], got.StageCap[v], want.stageCap[v])
		}
	}
	if bits(got.WireCap) != bits(want.wireCap) || bits(got.SinkCap) != bits(want.sinkCap) ||
		bits(got.BufInCap) != bits(want.bufInCap) || bits(got.BufIntCap) != bits(want.bufIntCap) ||
		bits(got.LeakageTot) != bits(want.leakage) || got.BufferCount != want.buffers {
		t.Fatalf("%s: inventory diverges from the reference", tag)
	}
}
