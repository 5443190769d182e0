package sta

import (
	"container/heap"
	"fmt"
	"math"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/rctree"
	"smartndr/internal/tech"
)

// Incremental is an Analyzer with a dirty-region update path: callers
// report tree edits through Touch, and the next Analyze recomputes only
// the stages those edits can reach instead of re-walking the whole tree.
//
// The contract is exactness, not approximation: an incremental Analyze
// returns results bitwise identical to a from-scratch Analyze of the same
// tree. That is what lets the optimizer flip between incremental and full
// analysis without changing a single decision (see the invariance tests
// in internal/core). The engine achieves it by re-running the *same*
// arithmetic the full pass runs, in the same per-node order, over the
// dirty region only:
//
//   - a rule or edge-length edit re-derives that edge's parasitics and
//     marks its owning stage cap-dirty; the stage's downstream caps and
//     StageCap are rebuilt with the full pass's accumulation order
//     (capacitive effects never escape a stage — buffer input pins
//     terminate the accumulation, so one bottom-up stage rebuild is the
//     whole upstream chain);
//   - a sink pin-cap edit on an unbuffered leaf updates the endpoint cap
//     the leaf presents to its stage and marks that stage cap-dirty,
//     exactly like a wire edit (design sessions edit sink caps in place);
//   - a buffer resize updates the endpoint cap it presents to its parent
//     stage (cap-dirty) and marks its own stage delay-dirty;
//   - timing then re-propagates top-down from the dirty stages, in
//     stage-depth order, pruning at every buffered endpoint whose
//     (arrival, slew) came out bitwise unchanged;
//   - a stage reached only by an arrival shift (input slew, load, and
//     buffer all unchanged) takes the arrival-only fast path: its cached
//     driver delay is reused and each node gets one add
//     (Arrival = stageOutArr + elm), skipping the NLDM table lookups and
//     the slew hypot entirely. This is the "subtree offset patch" of the
//     dirty-region design, realized as a recompute from the cached delay
//     rather than a float offset-add so the result stays bitwise exact.
//
// When the dirty region is too large for the update to win — the visit
// budget, a structural edit (buffer added/removed), a new tree, or a
// changed input slew — Analyze falls back to one full pass, which also
// refreshes every cache. Zero pending edits return the cached Result for
// free.
//
// An Incremental is not safe for concurrent use.
type Incremental struct {
	an  *Analyzer
	te  *tech.Tech
	lib *cell.Library

	// crossCheck re-runs a full analysis after every incremental update
	// and verifies the two agree (debug mode; see SetCrossCheck).
	crossCheck bool
	checker    *Analyzer

	disabled bool
	valid    bool
	tree     *ctree.Tree
	n        int
	lastSlew float64

	depth     []int // node depth (heap key for stage ordering)
	stageSize []int // per driver: node count of its stage

	pending     []int
	pendingMark []bool

	// Per-update scratch, cleared after every update.
	capDirty   []bool
	capList    []int
	delayDirty []bool
	delayList  []int
	mode       []uint8 // per driver: scheduled timing mode
	schedList  []int
	driverHeap driverHeap
	walk       []int // stage DFS stack
	stageBuf   []int // gathered stage nodes (cap phase)

	stats IncStats
}

// Timing modes a stage can be scheduled with. A stage scheduled both ways
// keeps the stronger (full) mode.
const (
	modeNone uint8 = iota
	modeArrival
	modeFull
)

// IncStats counts what the incremental layer did. NodeVisits is the STA
// cost metric: one unit per node touched by a tree-traversal pass — a
// full analysis costs 2n (cap pass + timing pass), an incremental update
// costs the dirty-region stage walks it actually performs (arrival-only
// visits included). Flat inventory re-sums (one add per node, no
// traversal) are not counted; docs/performance.md records the definition.
type IncStats struct {
	FullRuns   int   // from-scratch analyses (first run, invalidation, fallback)
	IncRuns    int   // dirty-region updates that committed
	CachedRuns int   // zero-edit analyses served from cache
	Fallbacks  int   // updates abandoned for a full run
	NodeVisits int64 // total node visits under the metric above
}

// NewIncremental returns an incremental analyzer for the technology and
// library. The first Analyze runs full; subsequent ones are incremental
// over the edits reported via Touch.
func NewIncremental(te *tech.Tech, lib *cell.Library) *Incremental {
	return &Incremental{an: NewAnalyzer(te, lib), te: te, lib: lib}
}

// Disable pins the analyzer to the always-full path: every Analyze runs a
// from-scratch pass (still allocation-free across calls). This is the
// reference mode the differential and invariance tests compare against.
func (inc *Incremental) Disable() {
	inc.disabled = true
	inc.valid = false
}

// SetCrossCheck toggles debug cross-checking: after every committed
// incremental update, a from-scratch analysis runs on a shadow analyzer
// and the two results are compared field by field (1e-12 absolute).
// Mismatches surface as Analyze errors. Expensive — tests only.
func (inc *Incremental) SetCrossCheck(on bool) {
	inc.crossCheck = on
	if on && inc.checker == nil {
		inc.checker = NewAnalyzer(inc.te, inc.lib)
	}
}

// Stats returns the run counters accumulated so far.
func (inc *Incremental) Stats() IncStats { return inc.stats }

// Invalidate drops all cached state; the next Analyze runs full. Call it
// after edits that cannot be attributed to specific nodes.
func (inc *Incremental) Invalidate() {
	inc.valid = false
	inc.clearPending()
}

// Touch reports that node v was edited (rule, edge length, buffer
// index, or — for an unbuffered leaf — its sink's pin cap) since the
// last Analyze. Touching an unedited node is harmless;
// out-of-range nodes invalidate the cache (the tree evidently changed
// shape). Reverted edits need no Touch if the value is back to what the
// last analysis saw — Touch-then-revert is also fine, the update just
// finds nothing dirty.
func (inc *Incremental) Touch(v int) {
	if !inc.valid {
		return
	}
	if v < 0 || v >= inc.n {
		inc.Invalidate()
		return
	}
	if !inc.pendingMark[v] {
		inc.pendingMark[v] = true
		inc.pending = append(inc.pending, v)
	}
}

// Analyze evaluates the tree, incrementally when possible. The returned
// Result is owned by the analyzer and overwritten by the next call, like
// Analyzer.Analyze. Overrides are not supported on the incremental path;
// use a plain Analyzer for corner or variation analysis.
func (inc *Incremental) Analyze(t *ctree.Tree, inSlew float64) (*Result, error) {
	if inc.disabled {
		res, err := inc.an.analyze(t, inSlew, nil, nil)
		if err == nil {
			inc.stats.FullRuns++
			inc.stats.NodeVisits += int64(2 * len(t.Nodes))
		}
		return res, err
	}
	if !inc.valid || t != inc.tree || len(t.Nodes) != inc.n || inSlew != inc.lastSlew {
		return inc.full(t, inSlew)
	}
	if len(inc.pending) == 0 {
		inc.stats.CachedRuns++
		return &inc.an.res, nil
	}
	if !inc.update(t) {
		inc.stats.Fallbacks++
		return inc.full(t, inSlew)
	}
	inc.stats.IncRuns++
	inc.clearPending()
	if inc.crossCheck {
		if err := inc.runCrossCheck(t, inSlew); err != nil {
			inc.valid = false
			return nil, err
		}
	}
	return &inc.an.res, nil
}

// full runs a from-scratch analysis and refreshes every incremental cache.
func (inc *Incremental) full(t *ctree.Tree, inSlew float64) (*Result, error) {
	res, err := inc.an.analyze(t, inSlew, nil, nil)
	if err != nil {
		inc.valid = false
		inc.clearPending()
		return nil, err
	}
	inc.stats.FullRuns++
	inc.stats.NodeVisits += int64(2 * len(t.Nodes))
	inc.capture(t, inSlew)
	return res, nil
}

// capture snapshots the per-node state the update path diffs against.
func (inc *Incremental) capture(t *ctree.Tree, inSlew float64) {
	inc.clearPending() // before resizing: marks may index the old tree
	n := len(t.Nodes)
	inc.tree, inc.n, inc.lastSlew = t, n, inSlew
	if cap(inc.depth) < n {
		inc.depth = make([]int, n)
		inc.stageSize = make([]int, n)
		inc.pendingMark = make([]bool, n)
		inc.capDirty = make([]bool, n)
		inc.delayDirty = make([]bool, n)
		inc.mode = make([]uint8, n)
	} else {
		inc.depth = inc.depth[:n]
		inc.stageSize = inc.stageSize[:n]
		inc.pendingMark = inc.pendingMark[:n]
		inc.capDirty = inc.capDirty[:n]
		inc.delayDirty = inc.delayDirty[:n]
		inc.mode = inc.mode[:n]
	}
	a := inc.an
	clear(inc.stageSize)
	// The bound pre-order list has parents before children.
	inc.depth[a.order[0]] = 0
	for _, v := range a.order[1:] {
		inc.depth[v] = inc.depth[a.parent[v]] + 1
		inc.stageSize[a.drv[v]]++
	}
	inc.valid = true
}

func (inc *Incremental) clearPending() {
	for _, v := range inc.pending {
		inc.pendingMark[v] = false
	}
	inc.pending = inc.pending[:0]
}

func (inc *Incremental) clearDirty() {
	for _, d := range inc.capList {
		inc.capDirty[d] = false
	}
	inc.capList = inc.capList[:0]
	for _, d := range inc.delayList {
		inc.delayDirty[d] = false
	}
	inc.delayList = inc.delayList[:0]
	for _, d := range inc.schedList {
		inc.mode[d] = modeNone
	}
	inc.schedList = inc.schedList[:0]
	inc.driverHeap = inc.driverHeap[:0]
}

func (inc *Incremental) markCap(d int) {
	if !inc.capDirty[d] {
		inc.capDirty[d] = true
		inc.capList = append(inc.capList, d)
	}
}

func (inc *Incremental) markDelay(d int) {
	if !inc.delayDirty[d] {
		inc.delayDirty[d] = true
		inc.delayList = append(inc.delayList, d)
	}
}

// schedule queues stage driver d for timing re-propagation; a stage asked
// for both modes keeps the stronger one.
func (inc *Incremental) schedule(d int, m uint8) {
	if inc.mode[d] == modeNone {
		inc.mode[d] = m
		inc.schedList = append(inc.schedList, d)
		heap.Push(&inc.driverHeap, hDriver{depth: inc.depth[d], node: d})
		return
	}
	if m > inc.mode[d] {
		inc.mode[d] = m
	}
}

// update applies the pending edits to the cached analysis. It returns
// false when the edits call for a full re-analysis (structural change,
// out-of-range field, or dirty region over budget); partially written
// buffers are safe because the full pass overwrites everything.
func (inc *Incremental) update(t *ctree.Tree) bool {
	defer inc.clearDirty()
	a, te, lib := inc.an, inc.te, inc.lib
	res := &a.res
	n := inc.n
	// A full pass costs 2n node visits, so that is the break-even budget:
	// past it an update stops paying for itself. The pre-check below
	// catches most oversized dirty sets before any work; this bounds the
	// cascade itself.
	budget := 2 * n
	if budget < 32 {
		budget = 32
	}
	visits := 0

	wireDirty, bufDirty, sinkDirty := false, false, false
	for _, v := range inc.pending {
		nd := &t.Nodes[v]
		if (a.buf[v] == ctree.NoBuf) != (nd.BufIdx == ctree.NoBuf) {
			return false // buffer added or removed: stage structure changed
		}
		// A sink pin-cap edit changes the endpoint cap an unbuffered leaf
		// presents to its stage — exactly the L[v] the full pass reads.
		if nd.BufIdx == ctree.NoBuf && nd.SinkIdx != ctree.NoSink && t.IsLeaf(v) {
			if c := t.Sinks[nd.SinkIdx].Cap; c != a.endCap[v] {
				a.endCap[v] = c
				sinkDirty = true
				inc.markCap(int(a.drv[v]))
			}
		}
		if nd.Parent != ctree.NoNode {
			if nd.Rule < 0 || nd.Rule >= te.NumRules() {
				return false // full pass reports the error
			}
			er := te.WireR(nd.EdgeLen, nd.Rule)
			ec := te.WireC(nd.EdgeLen, nd.Rule)
			edited := false
			if er != a.edgeR[v] {
				a.edgeR[v] = er
				edited = true
			}
			if ec != a.edgeC[v] {
				a.edgeC[v] = ec
				wireDirty = true
				edited = true
			}
			if edited {
				inc.markCap(int(a.drv[v]))
			}
		}
		if nd.BufIdx != int(a.buf[v]) {
			if nd.BufIdx < 0 || nd.BufIdx >= len(lib.Buffers) {
				return false // full pass reports the error
			}
			a.endCap[v] = lib.Buffers[nd.BufIdx].InputCap
			a.buf[v] = int32(nd.BufIdx)
			bufDirty = true
			if nd.Parent != ctree.NoNode {
				inc.markCap(int(a.drv[v])) // new input cap loads the parent stage
			} else {
				// Root resize: no parent stage rebuild walks the root, so
				// refresh its own lumped cap here (buffered ⇒ no kid term).
				a.downCap[v] = a.endCap[v] + a.edgeC[v]/2
			}
			inc.markDelay(v) // its own stage re-reads the NLDM tables
		}
	}

	// Cheap lower bound before doing any stage work: every dirty stage
	// must be walked at least once in each phase.
	est := 0
	for _, d := range inc.capList {
		est += 2 * inc.stageSize[d]
	}
	for _, d := range inc.delayList {
		if !inc.capDirty[d] {
			est += inc.stageSize[d]
		}
	}
	if est > budget {
		return false
	}

	// Cap phase: rebuild each cap-dirty stage bottom-up with the full
	// pass's accumulation order. Effects cannot escape the stage — buffer
	// inputs terminate the downstream-cap sum — so no upstream chain walk
	// is needed beyond the owning stage itself.
	for _, d := range inc.capList {
		stage := inc.stageBuf[:0]
		w := inc.walk[:0]
		for _, k := range t.Nodes[d].Kids {
			if k != ctree.NoNode {
				w = append(w, k)
			}
		}
		for len(w) > 0 {
			v := w[len(w)-1]
			w = w[:len(w)-1]
			stage = append(stage, v)
			if t.Nodes[v].BufIdx == ctree.NoBuf {
				for _, k := range t.Nodes[v].Kids {
					if k != ctree.NoNode {
						w = append(w, k)
					}
				}
			}
		}
		inc.walk = w[:0]
		visits += len(stage)
		if visits > budget {
			inc.stageBuf = stage[:0]
			inc.stats.NodeVisits += int64(visits) // wasted work still counts
			return false
		}
		// Children before parents: reversed pre-order, with the identical
		// per-node adds the full pass performs.
		for i := len(stage) - 1; i >= 0; i-- {
			v := stage[i]
			nd := &t.Nodes[v]
			dv := a.endCap[v] + a.edgeC[v]/2
			if nd.BufIdx == ctree.NoBuf {
				for _, k := range nd.Kids {
					if k != ctree.NoNode {
						dv += a.downCap[k] + a.edgeC[k]/2
					}
				}
			}
			a.downCap[v] = dv
		}
		load := 0.0
		for _, k := range t.Nodes[d].Kids {
			if k != ctree.NoNode {
				load += a.downCap[k] + a.edgeC[k]/2
			}
		}
		res.StageCap[d] = load
		inc.stageBuf = stage[:0]
		inc.schedule(d, modeFull)
	}
	for _, d := range inc.delayList {
		inc.schedule(d, modeFull)
	}

	// Timing phase: re-propagate dirty stages in depth order (a stage's
	// driver is strictly shallower than any stage it feeds, so parents
	// always commit their endpoint arrivals/slews before children read
	// them). Propagation prunes at every buffered endpoint whose values
	// come out bitwise unchanged.
	for len(inc.driverHeap) > 0 {
		d := heap.Pop(&inc.driverHeap).(hDriver).node
		m := inc.mode[d]
		if m == modeFull {
			a.startStage(int32(d), nil)
		} else {
			// Arrival-only: input slew, load, and buffer unchanged, so the
			// cached delay is exactly what DelayAt would return.
			a.stageOutArr[d] = res.Arrival[d] + a.stageDelay[d]
		}
		w := inc.walk[:0]
		for _, k := range t.Nodes[d].Kids {
			if k != ctree.NoNode {
				w = append(w, k)
			}
		}
		for len(w) > 0 {
			v := w[len(w)-1]
			w = w[:len(w)-1]
			visits++
			if visits > budget {
				inc.walk = w[:0]
				inc.stats.NodeVisits += int64(visits) // wasted work still counts
				return false
			}
			nd := &t.Nodes[v]
			var arr, sl float64
			if m == modeFull {
				base := 0.0
				if p := nd.Parent; p != d {
					base = a.elm[p]
				}
				e := base + a.edgeR[v]*a.downCap[v]
				a.elm[v] = e
				arr = a.stageOutArr[d] + e
				sl = math.Hypot(a.stageOutSlew[d], rctree.Ln9*e)
			} else {
				arr = a.stageOutArr[d] + a.elm[v]
				sl = res.Slew[v]
			}
			if nd.BufIdx != ctree.NoBuf {
				arrChanged := arr != res.Arrival[v]
				slChanged := sl != res.Slew[v]
				res.Arrival[v] = arr
				res.Slew[v] = sl
				switch {
				case slChanged:
					inc.schedule(v, modeFull)
				case arrChanged:
					inc.schedule(v, modeArrival)
				}
				continue // endpoint: the child stage owns what lies below
			}
			res.Arrival[v] = arr
			res.Slew[v] = sl
			for _, k := range nd.Kids {
				if k != ctree.NoNode {
					w = append(w, k)
				}
			}
		}
		inc.walk = w[:0]
	}
	inc.stats.NodeVisits += int64(visits)

	// Inventory sums: re-sum in node-index order (the full pass's order)
	// rather than patching deltas — float addition is not associative, and
	// the contract is bitwise equality. One add per node, no traversal.
	if wireDirty {
		wc := 0.0
		for i := range t.Nodes {
			if t.Nodes[i].Parent != ctree.NoNode {
				wc += a.edgeC[i]
			}
		}
		res.WireCap = wc
	}
	if bufDirty {
		inCap, intCap, leak, count := 0.0, 0.0, 0.0, 0
		for i := range t.Nodes {
			if bi := t.Nodes[i].BufIdx; bi != ctree.NoBuf {
				b := &lib.Buffers[bi]
				inCap += b.InputCap
				intCap += b.InternalCap
				leak += b.Leakage
				count++
			}
		}
		res.BufInCap, res.BufIntCap, res.LeakageTot = inCap, intCap, leak
		res.BufferCount = count
	}
	if sinkDirty {
		sc := 0.0
		for i := range t.Nodes {
			if nd := &t.Nodes[i]; nd.BufIdx == ctree.NoBuf && t.IsLeaf(i) {
				sc += t.Sinks[nd.SinkIdx].Cap
			}
		}
		res.SinkCap = sc
	}
	return true
}

// runCrossCheck verifies the freshly committed incremental state against a
// from-scratch analysis on a shadow analyzer (1e-12 absolute tolerance).
func (inc *Incremental) runCrossCheck(t *ctree.Tree, inSlew float64) error {
	want, err := inc.checker.analyze(t, inSlew, nil, nil)
	if err != nil {
		return fmt.Errorf("sta: cross-check analysis failed: %w", err)
	}
	got := &inc.an.res
	const tol = 1e-12
	diff := func(a, b float64) bool { return math.Abs(a-b) > tol }
	for i := range t.Nodes {
		if diff(got.Arrival[i], want.Arrival[i]) || diff(got.Slew[i], want.Slew[i]) ||
			diff(got.DownCap[i], want.DownCap[i]) {
			return fmt.Errorf("sta: incremental cross-check mismatch at node %d: arrival %g vs %g, slew %g vs %g, downcap %g vs %g",
				i, got.Arrival[i], want.Arrival[i], got.Slew[i], want.Slew[i], got.DownCap[i], want.DownCap[i])
		}
	}
	if len(got.Drivers) != len(want.Drivers) {
		return fmt.Errorf("sta: incremental cross-check mismatch: %d drivers vs %d", len(got.Drivers), len(want.Drivers))
	}
	for k, d := range want.Drivers {
		if got.Drivers[k] != d {
			return fmt.Errorf("sta: incremental cross-check mismatch: driver[%d] %d vs %d", k, got.Drivers[k], d)
		}
		if diff(got.StageCap[d], want.StageCap[d]) {
			return fmt.Errorf("sta: incremental cross-check mismatch: StageCap[%d] %g vs %g", d, got.StageCap[d], want.StageCap[d])
		}
	}
	if diff(got.WireCap, want.WireCap) || diff(got.SinkCap, want.SinkCap) ||
		diff(got.BufInCap, want.BufInCap) ||
		diff(got.BufIntCap, want.BufIntCap) || diff(got.LeakageTot, want.LeakageTot) ||
		got.BufferCount != want.BufferCount {
		return fmt.Errorf("sta: incremental cross-check mismatch in inventory sums")
	}
	return nil
}

// hDriver is a stage driver queued for timing re-propagation.
type hDriver struct{ depth, node int }

// driverHeap is a min-heap of dirty stage drivers keyed by depth.
type driverHeap []hDriver

func (h driverHeap) Len() int           { return len(h) }
func (h driverHeap) Less(i, j int) bool { return h[i].depth < h[j].depth }
func (h driverHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *driverHeap) Push(x any)        { *h = append(*h, x.(hDriver)) }
func (h *driverHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
