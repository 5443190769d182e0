// Package cell models the clock buffer library: cells characterized, as in
// Liberty NLDM, by two-dimensional lookup tables of delay and output slew
// indexed by input slew and output load. Tables are interpolated bilinearly
// and extrapolated linearly at the edges, matching the behaviour of
// commercial delay calculators.
//
// The built-in library is generated from a first-order switch-resistance
// model and then *only* the tables are used downstream, so the rest of the
// system exercises the same table-lookup path it would with vendor data.
package cell

import (
	"errors"
	"fmt"
	"math"
)

// Table is a 2-D NLDM lookup table: Values[i][j] is the table value at
// input slew SlewAxis[i] and load LoadAxis[j]. Both axes must be strictly
// increasing.
type Table struct {
	SlewAxis []float64   `json:"slew_axis"` // s
	LoadAxis []float64   `json:"load_axis"` // F
	Values   [][]float64 `json:"values"`
}

// Validate checks table shape and axis monotonicity.
func (t *Table) Validate() error {
	if len(t.SlewAxis) < 2 || len(t.LoadAxis) < 2 {
		return errors.New("cell: table axes need at least 2 points")
	}
	if len(t.Values) != len(t.SlewAxis) {
		return fmt.Errorf("cell: table has %d rows, want %d", len(t.Values), len(t.SlewAxis))
	}
	for i, row := range t.Values {
		if len(row) != len(t.LoadAxis) {
			return fmt.Errorf("cell: table row %d has %d cols, want %d", i, len(row), len(t.LoadAxis))
		}
	}
	for i := 1; i < len(t.SlewAxis); i++ {
		if t.SlewAxis[i] <= t.SlewAxis[i-1] {
			return errors.New("cell: slew axis not strictly increasing")
		}
	}
	for j := 1; j < len(t.LoadAxis); j++ {
		if t.LoadAxis[j] <= t.LoadAxis[j-1] {
			return errors.New("cell: load axis not strictly increasing")
		}
	}
	return nil
}

// Lookup evaluates the table at (slew, load) with bilinear interpolation
// inside the characterized region and linear extrapolation outside it.
func (t *Table) Lookup(slew, load float64) float64 {
	i0, i1, fs := bracket(t.SlewAxis, slew)
	j0, j1, fl := bracket(t.LoadAxis, load)
	return t.interp(i0, i1, j0, j1, fs, fl)
}

// interp blends the four table values around a bracketed point.
func (t *Table) interp(i0, i1, j0, j1 int, fs, fl float64) float64 {
	v00 := t.Values[i0][j0]
	v01 := t.Values[i0][j1]
	v10 := t.Values[i1][j0]
	v11 := t.Values[i1][j1]
	return v00*(1-fs)*(1-fl) + v01*(1-fs)*fl + v10*fs*(1-fl) + v11*fs*fl
}

// bracket finds the axis interval for x and the interpolation fraction.
// Outside the axis range the nearest interval is used with a fraction
// outside [0,1], which yields linear extrapolation.
func bracket(axis []float64, x float64) (lo, hi int, frac float64) {
	n := len(axis)
	// k = sort.SearchFloat64s(axis, x), open-coded: the closure call
	// showed up in every Monte Carlo trial's buffer lookups.
	k, j := 0, n
	for k < j {
		h := int(uint(k+j) >> 1)
		if !(axis[h] >= x) {
			k = h + 1
		} else {
			j = h
		}
	}
	switch {
	case k <= 0:
		lo, hi = 0, 1
	case k >= n:
		lo, hi = n-2, n-1
	default:
		lo, hi = k-1, k
	}
	frac = (x - axis[lo]) / (axis[hi] - axis[lo])
	return lo, hi, frac
}

// Buffer is one clock buffer cell.
type Buffer struct {
	Name        string  `json:"name"`
	Drive       float64 `json:"drive"`        // relative drive strength (X-factor)
	InputCap    float64 `json:"input_cap"`    // F
	InternalCap float64 `json:"internal_cap"` // F, switched internally each cycle
	Leakage     float64 `json:"leakage"`      // W
	Area        float64 `json:"area"`         // µm²
	Delay       Table   `json:"delay"`        // s
	OutSlew     Table   `json:"out_slew"`     // s
}

// Validate checks the cell's tables and scalar parameters.
func (b *Buffer) Validate() error {
	if b.Name == "" {
		return errors.New("cell: buffer with empty name")
	}
	if b.InputCap <= 0 {
		return fmt.Errorf("cell %s: non-positive input cap", b.Name)
	}
	if b.InternalCap < 0 || b.Leakage < 0 || b.Area < 0 {
		return fmt.Errorf("cell %s: negative scalar parameter", b.Name)
	}
	if err := b.Delay.Validate(); err != nil {
		return fmt.Errorf("cell %s delay: %w", b.Name, err)
	}
	if err := b.OutSlew.Validate(); err != nil {
		return fmt.Errorf("cell %s out_slew: %w", b.Name, err)
	}
	return nil
}

// DelayAt returns the cell delay at the given input slew and load.
func (b *Buffer) DelayAt(slew, load float64) float64 { return b.Delay.Lookup(slew, load) }

// OutSlewAt returns the output transition at the given input slew and load.
func (b *Buffer) OutSlewAt(slew, load float64) float64 { return b.OutSlew.Lookup(slew, load) }

// DelaySlewAt returns DelayAt and OutSlewAt of one operating point,
// bitwise equal to the two separate calls. When the delay and out-slew
// tables share their axis slices — as every Generate-built library does —
// each axis is bracketed once for both tables; otherwise (for example a
// library decoded from JSON, whose tables own distinct copies) it falls
// back to two Lookups.
func (b *Buffer) DelaySlewAt(slew, load float64) (delay, outSlew float64) {
	d, s := &b.Delay, &b.OutSlew
	if !sameAxis(d.SlewAxis, s.SlewAxis) || !sameAxis(d.LoadAxis, s.LoadAxis) {
		return d.Lookup(slew, load), s.Lookup(slew, load)
	}
	i0, i1, fs := bracket(d.SlewAxis, slew)
	j0, j1, fl := bracket(d.LoadAxis, load)
	return d.interp(i0, i1, j0, j1, fs, fl), s.interp(i0, i1, j0, j1, fs, fl)
}

// sameAxis reports whether two axes are the same slice (same backing
// array and length), so bracketing one brackets the other.
func sameAxis(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Library is an ordered set of buffer cells, weakest drive first.
type Library struct {
	Name    string   `json:"name"`
	Buffers []Buffer `json:"buffers"`
}

// Validate checks every cell and the drive ordering.
func (l *Library) Validate() error {
	if l.Name == "" {
		return errors.New("cell: library with empty name")
	}
	if len(l.Buffers) == 0 {
		return fmt.Errorf("cell: library %s has no buffers", l.Name)
	}
	seen := make(map[string]bool, len(l.Buffers))
	for i := range l.Buffers {
		b := &l.Buffers[i]
		if err := b.Validate(); err != nil {
			return err
		}
		if seen[b.Name] {
			return fmt.Errorf("cell: duplicate buffer name %q", b.Name)
		}
		seen[b.Name] = true
		if i > 0 && b.Drive <= l.Buffers[i-1].Drive {
			return fmt.Errorf("cell: library %s not ordered by drive at %q", l.Name, b.Name)
		}
	}
	return nil
}

// ByName returns the buffer with the given name.
func (l *Library) ByName(name string) (*Buffer, bool) {
	for i := range l.Buffers {
		if l.Buffers[i].Name == name {
			return &l.Buffers[i], true
		}
	}
	return nil, false
}

// Strongest returns the highest-drive buffer in the library.
func (l *Library) Strongest() *Buffer { return &l.Buffers[len(l.Buffers)-1] }

// Weakest returns the lowest-drive buffer in the library.
func (l *Library) Weakest() *Buffer { return &l.Buffers[0] }

// SmallestMeeting returns the weakest buffer whose output slew at the given
// input slew and load does not exceed maxSlew, or the strongest buffer (and
// false) if none qualifies.
func (l *Library) SmallestMeeting(slew, load, maxSlew float64) (*Buffer, bool) {
	for i := range l.Buffers {
		b := &l.Buffers[i]
		if b.OutSlewAt(slew, load) <= maxSlew {
			return b, true
		}
	}
	return l.Strongest(), false
}

// GenParams control synthetic library generation.
type GenParams struct {
	// R1 is the switch resistance of a unit-drive (X1) cell; a cell of
	// drive k has resistance R1/k.
	R1 float64
	// Cin1 is the input capacitance of a unit-drive cell; scales with k.
	Cin1 float64
	// T0 is the intrinsic (unloaded) delay, identical across sizes.
	T0 float64
	// SlewSens is the delay sensitivity to input slew (dimensionless).
	SlewSens float64
	// Drives lists the X-factors to generate, ascending.
	Drives []float64
	// Leak1 is the leakage of a unit cell (W); scales with k.
	Leak1 float64
	// Area1 is the area of a unit cell (µm²); scales with k.
	Area1 float64
}

// DefaultGenParams returns 45 nm-class generation parameters.
func DefaultGenParams() GenParams {
	return GenParams{
		R1:       4000,    // Ω
		Cin1:     1.2e-15, // F
		T0:       15e-12,  // s
		SlewSens: 0.20,
		Drives:   []float64{2, 4, 8, 16, 32},
		Leak1:    5e-9, // W
		Area1:    0.8,  // µm²
	}
}

// slewFromTau converts an RC time constant to a 10–90% transition time.
const slewFromTau = 2.2

// ln9 scales a step-response Elmore delay to a 10–90% transition (PERI).
const ln9 = 2.1972245773362196

// Generate builds a synthetic buffer library from first-order physics:
//
//	delay(s, cl)   = T0 + ln2·Rd·cl + SlewSens·s
//	outslew(s, cl) = sqrt((2.2·Rd·cl)² + (0.25·s)²)
//
// sampled onto NLDM axes. Downstream code sees only the tables.
func Generate(name string, p GenParams) (*Library, error) {
	if len(p.Drives) == 0 {
		return nil, errors.New("cell: no drives requested")
	}
	slewAxis := []float64{5e-12, 20e-12, 50e-12, 100e-12, 200e-12, 400e-12}
	lib := &Library{Name: name}
	for _, k := range p.Drives {
		if k <= 0 {
			return nil, fmt.Errorf("cell: non-positive drive %g", k)
		}
		rd := p.R1 / k
		cin := p.Cin1 * k
		// Load axis spans 0.5×…40× the cell's own input cap, the usual
		// characterization span.
		loadAxis := make([]float64, 0, 7)
		for _, m := range []float64{0.5, 1, 2, 5, 10, 20, 40} {
			loadAxis = append(loadAxis, cin*m)
		}
		delay := Table{SlewAxis: slewAxis, LoadAxis: loadAxis}
		oslew := Table{SlewAxis: slewAxis, LoadAxis: loadAxis}
		for _, s := range slewAxis {
			var drow, srow []float64
			for _, cl := range loadAxis {
				drow = append(drow, p.T0+math.Ln2*rd*cl+p.SlewSens*s)
				srow = append(srow, math.Hypot(slewFromTau*rd*cl, 0.25*s))
			}
			delay.Values = append(delay.Values, drow)
			oslew.Values = append(oslew.Values, srow)
		}
		lib.Buffers = append(lib.Buffers, Buffer{
			Name:        fmt.Sprintf("CLKBUF_X%g", k),
			Drive:       k,
			InputCap:    cin,
			InternalCap: 0.35 * cin,
			Leakage:     p.Leak1 * k,
			Area:        p.Area1 * k,
			Delay:       delay,
			OutSlew:     oslew,
		})
	}
	if err := lib.Validate(); err != nil {
		return nil, err
	}
	return lib, nil
}

// Default45 returns the built-in 45 nm-class clock buffer library.
func Default45() *Library {
	lib, err := Generate("clkbuf45", DefaultGenParams())
	if err != nil {
		panic("cell: built-in library invalid: " + err.Error())
	}
	return lib
}

// Default65 returns the built-in 65 nm-class clock buffer library: slower,
// larger cells with more input capacitance per drive.
func Default65() *Library {
	p := DefaultGenParams()
	p.R1 = 5200
	p.Cin1 = 1.8e-15
	p.T0 = 25e-12
	p.Area1 = 1.6
	lib, err := Generate("clkbuf65", p)
	if err != nil {
		panic("cell: built-in library invalid: " + err.Error())
	}
	return lib
}
