package cell

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func simpleTable() Table {
	return Table{
		SlewAxis: []float64{1, 2, 3},
		LoadAxis: []float64{10, 20},
		Values: [][]float64{
			{1, 2},
			{2, 3},
			{3, 4},
		},
	}
}

func TestTableValidate(t *testing.T) {
	tab := simpleTable()
	if err := tab.Validate(); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	bad := simpleTable()
	bad.SlewAxis = []float64{1}
	if err := bad.Validate(); err == nil {
		t.Error("one-point axis should fail")
	}
	bad = simpleTable()
	bad.SlewAxis = []float64{1, 1, 3}
	if err := bad.Validate(); err == nil {
		t.Error("non-increasing axis should fail")
	}
	bad = simpleTable()
	bad.Values = bad.Values[:2]
	if err := bad.Validate(); err == nil {
		t.Error("row count mismatch should fail")
	}
	bad = simpleTable()
	bad.Values[1] = []float64{1}
	if err := bad.Validate(); err == nil {
		t.Error("col count mismatch should fail")
	}
	bad = simpleTable()
	bad.LoadAxis = []float64{20, 10}
	if err := bad.Validate(); err == nil {
		t.Error("decreasing load axis should fail")
	}
}

func TestLookupAtGridPoints(t *testing.T) {
	tab := simpleTable()
	for i, s := range tab.SlewAxis {
		for j, l := range tab.LoadAxis {
			if got := tab.Lookup(s, l); math.Abs(got-tab.Values[i][j]) > 1e-12 {
				t.Errorf("Lookup(%g,%g) = %g, want %g", s, l, got, tab.Values[i][j])
			}
		}
	}
}

func TestLookupInterpolation(t *testing.T) {
	tab := simpleTable()
	// Midpoint in both axes of the lower-left cell: mean of 4 corners.
	got := tab.Lookup(1.5, 15)
	want := (1.0 + 2 + 2 + 3) / 4
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("bilinear midpoint = %g, want %g", got, want)
	}
}

func TestLookupExtrapolation(t *testing.T) {
	tab := simpleTable()
	// Table is linear (value = slew + load/10 − 1 + ...) in each axis; the
	// extrapolated value continues the edge slope.
	lo := tab.Lookup(0, 10) // one below the slew axis start
	if math.Abs(lo-0) > 1e-12 {
		t.Errorf("low extrapolation = %g, want 0", lo)
	}
	hi := tab.Lookup(4, 20)
	if math.Abs(hi-5) > 1e-12 {
		t.Errorf("high extrapolation = %g, want 5", hi)
	}
}

func TestLookupMatchesGeneratingPhysics(t *testing.T) {
	// The generated tables sample an analytic form; lookups on the grid and
	// within cells must track it closely.
	p := DefaultGenParams()
	lib, err := Generate("t", p)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := lib.ByName("CLKBUF_X8")
	if !ok {
		t.Fatal("X8 missing")
	}
	rd := p.R1 / 8
	f := func(sRaw, clRaw float64) bool {
		s := 5e-12 + math.Abs(math.Mod(sRaw, 395e-12))
		cl := b.InputCap * (0.5 + math.Abs(math.Mod(clRaw, 39.5)))
		want := p.T0 + math.Ln2*rd*cl + p.SlewSens*s
		got := b.DelayAt(s, cl)
		// Bilinear interpolation of a bilinear-in-axes function is exact up
		// to float noise; the analytic form is linear in s and cl, so the
		// error must be tiny.
		return math.Abs(got-want) <= 1e-15+1e-9*want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDelayMonotoneInLoad(t *testing.T) {
	lib := Default45()
	for i := range lib.Buffers {
		b := &lib.Buffers[i]
		prev := -1.0
		for m := 0.5; m < 60; m *= 1.4 {
			d := b.DelayAt(50e-12, b.InputCap*m)
			if d <= prev {
				t.Errorf("%s: delay not increasing in load", b.Name)
				break
			}
			prev = d
		}
	}
}

func TestStrongerCellFasterAtSameLoad(t *testing.T) {
	lib := Default45()
	load := 60e-15
	slew := 50e-12
	for i := 1; i < len(lib.Buffers); i++ {
		weak := lib.Buffers[i-1].DelayAt(slew, load)
		strong := lib.Buffers[i].DelayAt(slew, load)
		if strong >= weak {
			t.Errorf("%s not faster than %s at %g F load",
				lib.Buffers[i].Name, lib.Buffers[i-1].Name, load)
		}
	}
}

func TestLibraryValidate(t *testing.T) {
	lib := Default45()
	if err := lib.Validate(); err != nil {
		t.Fatalf("built-in library invalid: %v", err)
	}
	bad := Default45()
	bad.Buffers[1].Name = bad.Buffers[0].Name
	if err := bad.Validate(); err == nil {
		t.Error("duplicate cell names should fail")
	}
	bad = Default45()
	bad.Buffers[0].Drive = 100
	if err := bad.Validate(); err == nil {
		t.Error("drive ordering violation should fail")
	}
	bad = Default45()
	bad.Buffers[0].InputCap = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero input cap should fail")
	}
	empty := &Library{Name: "e"}
	if err := empty.Validate(); err == nil {
		t.Error("empty library should fail")
	}
}

func TestByName(t *testing.T) {
	lib := Default45()
	if _, ok := lib.ByName("CLKBUF_X8"); !ok {
		t.Error("X8 should exist")
	}
	if _, ok := lib.ByName("NOPE"); ok {
		t.Error("unknown cell should not resolve")
	}
}

func TestStrongestWeakest(t *testing.T) {
	lib := Default45()
	if lib.Weakest().Drive >= lib.Strongest().Drive {
		t.Error("weakest should have lower drive than strongest")
	}
}

func TestSmallestMeeting(t *testing.T) {
	lib := Default45()
	// Light load: the weakest cell should qualify.
	b, ok := lib.SmallestMeeting(20e-12, 2e-15, 100e-12)
	if !ok {
		t.Fatal("no cell meets a trivial constraint")
	}
	if b.Name != lib.Weakest().Name {
		t.Errorf("picked %s for a trivial load, want weakest", b.Name)
	}
	// Heavy load: a stronger cell is needed.
	heavy, ok := lib.SmallestMeeting(50e-12, 150e-15, 100e-12)
	if !ok {
		t.Fatalf("no cell meets 150 fF / 100 ps — library too weak for its own MaxCap")
	}
	if heavy.Drive <= lib.Weakest().Drive {
		t.Error("heavy load should need a stronger cell")
	}
	// Impossible constraint: returns strongest with ok=false.
	s, ok := lib.SmallestMeeting(400e-12, 5e-12, 1e-15)
	if ok || s.Name != lib.Strongest().Name {
		t.Errorf("impossible constraint: got %s, ok=%v", s.Name, ok)
	}
}

func TestGenerateErrors(t *testing.T) {
	p := DefaultGenParams()
	p.Drives = nil
	if _, err := Generate("x", p); err == nil {
		t.Error("empty drive list should fail")
	}
	p = DefaultGenParams()
	p.Drives = []float64{-1}
	if _, err := Generate("x", p); err == nil {
		t.Error("negative drive should fail")
	} else if !strings.Contains(err.Error(), "drive") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestDefault65Differs(t *testing.T) {
	a, b := Default45(), Default65()
	if a.Buffers[0].InputCap >= b.Buffers[0].InputCap {
		t.Error("65 nm cells should have more input cap")
	}
	if a.Buffers[0].DelayAt(50e-12, 20e-15) >= b.Buffers[0].DelayAt(50e-12, 20e-15) {
		t.Error("65 nm cells should be slower")
	}
}

func TestOutSlewIncreasesWithLoad(t *testing.T) {
	lib := Default45()
	b := lib.Buffers[2]
	if b.OutSlewAt(50e-12, 10e-15) >= b.OutSlewAt(50e-12, 100e-15) {
		t.Error("output slew must grow with load")
	}
}

// TestDelaySlewAtMatchesSeparateLookups: the shared-bracket lookup must be
// bitwise equal to DelayAt and OutSlewAt, both on a generated library
// (tables share their axis slices, so the axes are bracketed once) and on
// a JSON round trip of it (every table owns its axes, so the two-Lookup
// fallback runs). Points cover the interior, the grid points and both
// extrapolation sides of each axis.
func TestDelaySlewAtMatchesSeparateLookups(t *testing.T) {
	gen := Default45()
	raw, err := json.Marshal(gen)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Library
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		lib    *Library
		shared bool
	}{{"generated", gen, true}, {"json", &decoded, false}} {
		for bi := range tc.lib.Buffers {
			b := &tc.lib.Buffers[bi]
			if got := sameAxis(b.Delay.SlewAxis, b.OutSlew.SlewAxis) && sameAxis(b.Delay.LoadAxis, b.OutSlew.LoadAxis); got != tc.shared {
				t.Fatalf("%s %s: shared axes = %v, want %v", tc.name, b.Name, got, tc.shared)
			}
			rng := rand.New(rand.NewSource(int64(bi)))
			slews := append([]float64{1e-12, 450e-12}, b.Delay.SlewAxis...)
			loads := append([]float64{b.InputCap * 0.1, b.InputCap * 60}, b.Delay.LoadAxis...)
			for i := 0; i < 200; i++ {
				slews = append(slews, rng.Float64()*500e-12)
				loads = append(loads, rng.Float64()*b.InputCap*50)
			}
			for i, s := range slews {
				l := loads[i]
				d, o := b.DelaySlewAt(s, l)
				if wd, wo := b.DelayAt(s, l), b.OutSlewAt(s, l); d != wd || o != wo {
					t.Fatalf("%s %s at (%g, %g): DelaySlewAt = (%.17g, %.17g), want (%.17g, %.17g)",
						tc.name, b.Name, s, l, d, o, wd, wo)
				}
			}
		}
	}
}

// TestBracketMatchesSortSearch: the open-coded binary search must pick
// exactly the interval sort.SearchFloat64s picks, including at grid
// points, outside the axis and for NaN.
func TestBracketMatchesSortSearch(t *testing.T) {
	axis := []float64{5, 20, 50, 100, 200, 400}
	xs := append([]float64{math.NaN(), math.Inf(-1), math.Inf(1), 0, 4.999, 400.001}, axis...)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		xs = append(xs, rng.Float64()*450)
	}
	for _, x := range xs {
		k := sort.SearchFloat64s(axis, x)
		var lo, hi int
		switch {
		case k <= 0:
			lo, hi = 0, 1
		case k >= len(axis):
			lo, hi = len(axis)-2, len(axis)-1
		default:
			lo, hi = k-1, k
		}
		glo, ghi, frac := bracket(axis, x)
		want := (x - axis[lo]) / (axis[hi] - axis[lo])
		if glo != lo || ghi != hi || math.Float64bits(frac) != math.Float64bits(want) {
			t.Fatalf("bracket(%g) = (%d, %d, %g), want (%d, %d, %g)", x, glo, ghi, frac, lo, hi, want)
		}
	}
}
