package sta_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"smartndr/internal/sta"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/cts"
	"smartndr/internal/geom"
	"smartndr/internal/tech"
)

func synthTree(t testing.TB, n int, seed int64, te *tech.Tech, lib *cell.Library) *ctree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sinks := make([]ctree.Sink, n)
	for i := range sinks {
		sinks[i] = ctree.Sink{
			Loc: geom.Point{X: rng.Float64() * 1500, Y: rng.Float64() * 1500},
			Cap: (1 + rng.Float64()) * 1e-15,
		}
	}
	res, err := cts.Build(sinks, geom.Point{X: 750, Y: 750}, te, lib, cts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Tree
}

// TestAnalyzerMatchesAnalyze: repeated Analyzer calls — including across
// different trees — must agree exactly with fresh one-shot Analyze.
func TestAnalyzerMatchesAnalyze(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	trees := []*ctree.Tree{
		synthTree(t, 60, 1, te, lib),
		synthTree(t, 100, 2, te, lib), // bigger: buffers must grow
		synthTree(t, 30, 3, te, lib),  // smaller: buffers must shrink cleanly
	}
	an := sta.NewAnalyzer(te, lib)
	for round := 0; round < 2; round++ {
		for ti, tree := range trees {
			want, err := sta.Analyze(tree, te, lib, 40e-12)
			if err != nil {
				t.Fatal(err)
			}
			got, err := an.Analyze(tree, 40e-12, nil)
			if err != nil {
				t.Fatal(err)
			}
			for v := range want.Arrival {
				if got.Arrival[v] != want.Arrival[v] || got.Slew[v] != want.Slew[v] {
					t.Fatalf("round %d tree %d node %d: reused analyzer diverges", round, ti, v)
				}
			}
			if got.Skew() != want.Skew() || got.TotalSwitchedCap() != want.TotalSwitchedCap() {
				t.Fatalf("round %d tree %d: summary diverges", round, ti)
			}
			if got.BufferCount != want.BufferCount || len(got.Drivers) != len(want.Drivers) {
				t.Fatalf("round %d tree %d: stale inventory: %d bufs / %d stages, want %d / %d",
					round, ti, got.BufferCount, len(got.Drivers), want.BufferCount, len(want.Drivers))
			}
			if got.MaxSinkArrival() != want.MaxSinkArrival() {
				t.Fatalf("round %d tree %d: sink set stale", round, ti)
			}
		}
	}
}

// TestAnalyzerWithOverrides: the override path must behave identically
// through the reusing analyzer.
func TestAnalyzerWithOverrides(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := synthTree(t, 50, 4, te, lib)
	n := len(tree.Nodes)
	scale := make([]float64, n)
	for i := range scale {
		scale[i] = 1.1
	}
	ov := &sta.Overrides{BufScale: scale}
	want, err := sta.AnalyzeOv(tree, te, lib, 40e-12, ov)
	if err != nil {
		t.Fatal(err)
	}
	an := sta.NewAnalyzer(te, lib)
	// A nominal call first, so stale override state would be detectable.
	if _, err := an.Analyze(tree, 40e-12, nil); err != nil {
		t.Fatal(err)
	}
	got, err := an.Analyze(tree, 40e-12, ov)
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxSinkArrival() != want.MaxSinkArrival() || got.Skew() != want.Skew() {
		t.Error("override analysis diverges through the analyzer")
	}
	if got.MaxSinkArrival() <= 0 {
		t.Error("implausible arrival")
	}
}

// TestAnalyzerSteadyStateAllocs: after the first sizing call, repeated
// analyses of the same tree must not allocate — through the full
// Analyze and through Reanalyze alike.
func TestAnalyzerSteadyStateAllocs(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := synthTree(t, 80, 5, te, lib)
	an := sta.NewAnalyzer(te, lib)
	if _, err := an.Analyze(tree, 40e-12, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := an.Analyze(tree, 40e-12, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("steady-state Analyze allocates %.1f objects/run, want ≤ 2", allocs)
	}
	ov := randomOverrides(rand.New(rand.NewSource(5)), len(tree.Nodes))
	allocs = testing.AllocsPerRun(20, func() {
		if _, err := an.Reanalyze(40e-12, ov); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("steady-state Reanalyze allocates %.1f objects/run, want ≤ 2", allocs)
	}
}

// randomOverrides draws Overrides in one of four shapes: none at all, or
// each of EdgeR/EdgeC/BufScale independently nil or fully populated with
// values near nominal magnitudes. The root's entries are drawn too — the
// analysis must ignore them, since the root has no feeding edge.
func randomOverrides(rng *rand.Rand, n int) *sta.Overrides {
	if rng.Intn(4) == 0 {
		return nil
	}
	fill := func(scale float64) []float64 {
		if rng.Intn(3) == 0 {
			return nil
		}
		v := make([]float64, n)
		for i := range v {
			v[i] = scale * (0.2 + rng.Float64())
		}
		return v
	}
	return &sta.Overrides{EdgeR: fill(300), EdgeC: fill(20e-15), BufScale: fill(1.2)}
}

// sameResult asserts two results agree bitwise on every field, including
// StageCap at non-driver nodes and the sink list behind SinkArrivals.
func sameResult(t *testing.T, tag string, tree *ctree.Tree, got, want *sta.Result) {
	t.Helper()
	compareExact(t, tag, tree, got, want)
	for v := range tree.Nodes {
		if math.Float64bits(got.StageCap[v]) != math.Float64bits(want.StageCap[v]) {
			t.Fatalf("%s: StageCap[%d] %.17g, want %.17g", tag, v, got.StageCap[v], want.StageCap[v])
		}
	}
	ga, wa := got.SinkArrivals(tree), want.SinkArrivals(tree)
	for i := range wa {
		if math.Float64bits(ga[i]) != math.Float64bits(wa[i]) {
			t.Fatalf("%s: sink %d arrival %.17g, want %.17g", tag, i, ga[i], wa[i])
		}
	}
	gw, gat := got.WorstSlew()
	ww, wat := want.WorstSlew()
	if gw != ww || gat != wat || got.TotalSwitchedCap() != want.TotalSwitchedCap() {
		t.Fatalf("%s: worst slew or switched cap diverges", tag)
	}
}

// TestReanalyzeMatchesAnalyze is the differential harness for the
// bind/propagate split: on 24 seeded random trees with random rule
// assignments, every Reanalyze under random Overrides (nil, partial and
// full) must equal a from-scratch AnalyzeOv bit for bit, and both must
// equal referenceAnalyze, the plain-walk oracle. The analyzer is
// shared across trees, so every tree after the first also re-binds a
// differently sized tree, and between trees it is fed a rejected tree:
// Reanalyze must then refuse to run until the next successful Analyze.
func TestReanalyzeMatchesAnalyze(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	an := sta.NewAnalyzer(te, lib)
	if _, err := an.Reanalyze(40e-12, nil); err == nil {
		t.Fatal("Reanalyze before any Analyze must fail")
	}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tree := synthTree(t, 15+rng.Intn(100), 100+seed, te, lib)
		for i := range tree.Nodes {
			if tree.Nodes[i].Parent != ctree.NoNode {
				tree.Nodes[i].Rule = rng.Intn(te.NumRules())
			}
		}
		if _, err := an.Analyze(tree, 40e-12, randomOverrides(rng, len(tree.Nodes))); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 6; trial++ {
			tag := fmt.Sprintf("seed %d trial %d", seed, trial)
			inSlew := (20 + 60*rng.Float64()) * 1e-12
			ov := randomOverrides(rng, len(tree.Nodes))
			want, err := sta.AnalyzeOv(tree, te, lib, inSlew, ov)
			if err != nil {
				t.Fatal(err)
			}
			matchesReference(t, tag, want, referenceAnalyze(tree, te, lib, inSlew, ov))
			got, err := an.Reanalyze(inSlew, ov)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			sameResult(t, tag, tree, got, want)
		}
		// An input-slew error leaves the binding intact.
		if _, err := an.Reanalyze(0, nil); err == nil {
			t.Fatal("zero input slew must fail")
		}
		want, _ := sta.Analyze(tree, te, lib, 40e-12)
		got, err := an.Reanalyze(40e-12, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("seed %d after slew error", seed), tree, got, want)
		// A rejected tree unbinds the analyzer.
		bad := tree.Clone()
		bad.Nodes[bad.Root].BufIdx = 99
		if _, err := an.Analyze(bad, 40e-12, nil); err == nil {
			t.Fatal("out-of-range buffer must fail")
		}
		if _, err := an.Reanalyze(40e-12, nil); err == nil {
			t.Fatalf("seed %d: Reanalyze after a rejected tree must fail", seed)
		}
	}
}

func TestAnalyzerErrors(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	tree := synthTree(t, 20, 6, te, lib)
	an := sta.NewAnalyzer(te, lib)
	if _, err := an.Analyze(tree, 0, nil); err == nil {
		t.Error("zero input slew must fail")
	}
	bad := tree.Clone()
	bad.Nodes[1].Rule = 99
	if _, err := an.Analyze(bad, 40e-12, nil); err == nil {
		t.Error("out-of-range rule must fail")
	}
	// Out-of-range buffer indices must be rejected, not indexed: past the
	// library's end, and negative other than ctree.NoBuf.
	for _, bi := range []int{99, -5} {
		bad := tree.Clone()
		for i := range bad.Nodes {
			if bad.Nodes[i].BufIdx != ctree.NoBuf && i != bad.Root {
				bad.Nodes[i].BufIdx = bi
				break
			}
		}
		if _, err := an.Analyze(bad, 40e-12, nil); err == nil {
			t.Errorf("buffer index %d must fail", bi)
		}
	}
	// The analyzer must recover from an error and produce correct results.
	got, err := an.Analyze(tree, 40e-12, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sta.Analyze(tree, te, lib, 40e-12)
	if math.Abs(got.Skew()-want.Skew()) > 0 {
		t.Error("post-error analysis diverges")
	}
}
