package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"smartndr/internal/core"
	"smartndr/internal/ctree"
	"smartndr/internal/obs"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 5

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ms returns the time since t0 in milliseconds.
func ms(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// cpuTime returns the CPU time the process has used so far, user plus
// system, over all threads. Unlike wall time it leaves out the time the
// host stole from the VM's vCPUs, the largest source of run-to-run
// spread on a shared machine.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// opTime is the wall and CPU milliseconds of one op.
type opTime struct{ wall, cpu float64 }

// timeOp runs fn and measures it.
func timeOp(fn func()) opTime {
	c0, t0 := cpuTime(), time.Now()
	fn()
	return opTime{wall: ms(t0), cpu: float64((cpuTime() - c0).Nanoseconds()) / 1e6}
}

// setSetup runs fn for repetitions 0 to setupReps-1 and sets setup_s to
// the median CPU seconds of one set-up, reporting the median wall seconds
// beside it. Every repetition must succeed; the run keeps the state the
// last one built.
func (b *bench) setSetup(what string, fn func(rep int) error) error {
	var cpu, wall []float64
	for i := 0; i < setupReps; i++ {
		var err error
		d := timeOp(func() { err = fn(i) })
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		cpu = append(cpu, d.cpu/1e3)
		wall = append(wall, d.wall/1e3)
	}
	b.set("setup_s", median(cpu), "s", setupReps, "median process CPU seconds of one set-up: "+what)
	b.report("setup_wall_s", median(wall), "s", setupReps, "median wall seconds of one set-up")
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// memSpan measures the Go runtime's work over a stretch of code.
type memSpan struct{ before runtime.MemStats }

func startMem() *memSpan {
	m := &memSpan{}
	runtime.ReadMemStats(&m.before)
	return m
}

// end returns the heap objects allocated, bytes allocated and GC cycles
// completed since startMem.
func (m *memSpan) end() (allocs, bytes uint64, gcs uint32) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.Mallocs - m.before.Mallocs, after.TotalAlloc - m.before.TotalAlloc,
		after.NumGC - m.before.NumGC
}

// countAllocs runs fn on one P with the collector off and returns the
// heap objects and bytes it allocated. The runtime's own allocations
// vary with how goroutines spread over Ps and with the GC cycles that
// fall inside fn; without either, the counts repeat exactly.
func countAllocs(fn func() error) (allocs, bytes uint64, err error) {
	runtime.GC()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mem := startMem()
	err = fn()
	allocs, bytes, _ = mem.end()
	return allocs, bytes, err
}

// goWork accumulates the Go runtime's work over the untraced ops of a
// traced run.
type goWork struct {
	bytes uint64
	gcs   uint32
	ops   int
}

// add folds in a memSpan that covered ops ops.
func (g *goWork) add(m *memSpan, ops int) {
	_, bytes, gcs := m.end()
	g.bytes += bytes
	g.gcs += gcs
	g.ops += ops
}

// reportGo sets the go.* layer metrics per op.
func (b *bench) reportGo(g goWork, op string) {
	n := float64(g.ops)
	b.set("go.gc_cycles_per_op", float64(g.gcs)/n, "count", g.ops, "GC cycles per "+op+", untraced")
	b.set("go.alloc_mb_per_op", float64(g.bytes)/n/(1<<20), "MB", g.ops, "heap MiB allocated per "+op+", untraced")
}

// reportOverhead sets obs.trace_overhead_pct from matched untraced and
// traced timings of the same work.
func (b *bench) reportOverhead(plain, traced []float64, what string) {
	pct := (median(traced)/median(plain) - 1) * 100
	b.set("obs.trace_overhead_pct", pct, "%", len(plain)+len(traced),
		fmt.Sprintf("traced vs untraced median %s (%.4g vs %.4g ms)", what, median(traced), median(plain)))
}

// resultHash is the content hash of a flow result: every node of the
// tree (topology, embedding, edge length, routing rule, buffer), every
// sink, and the metrics. Float fields enter by their bit patterns.
func resultHash(t *ctree.Tree, m core.Metrics) (string, error) {
	h := sha256.New()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(x float64) { w(math.Float64bits(x)) }
	i := func(x int) { w(uint64(int64(x))) }
	i(t.Root)
	for _, n := range t.Nodes {
		i(n.Parent)
		i(n.Kids[0])
		i(n.Kids[1])
		i(n.SinkIdx)
		f(n.Loc.X)
		f(n.Loc.Y)
		f(n.EdgeLen)
		i(n.Rule)
		i(n.BufIdx)
	}
	for _, s := range t.Sinks {
		h.Write([]byte(s.Name))
		f(s.Loc.X)
		f(s.Loc.Y)
		f(s.Cap)
		f(s.Delay)
	}
	mj, err := json.Marshal(m)
	if err != nil {
		return "", fmt.Errorf("hashing metrics: %w", err)
	}
	h.Write(mj)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// spans sums finished span durations by path, for reading the phases
// the program already instruments.
type spans struct {
	totalNS map[string]int64
	calls   map[string]int
}

func newSpans() *spans {
	return &spans{totalNS: map[string]int64{}, calls: map[string]int{}}
}

func (s *spans) add(events []obs.SpanEvent) {
	for _, ev := range events {
		if ev.Span == "metrics" {
			continue
		}
		s.totalNS[ev.Span] += ev.DurNS
		s.calls[ev.Span]++
	}
}

// addSnapshot folds a SpanObserver's per-path histograms in.
func (s *spans) addSnapshot(snap map[string]obs.HistogramSnapshot) {
	for path, h := range snap {
		s.totalNS[path] += int64(h.Sum * 1e9)
		s.calls[path] += int(h.Count)
	}
}

// suffix returns the total milliseconds and call count of every span
// whose path ends in the given phase path (e.g. "cts.build/cluster").
func (s *spans) suffix(phase string) (float64, int) {
	var ns int64
	calls := 0
	for path, d := range s.totalNS {
		if path == phase || strings.HasSuffix(path, "/"+phase) {
			ns += d
			calls += s.calls[path]
		}
	}
	return float64(ns) / 1e6, calls
}

// perCall sets a layer metric to the mean milliseconds per call of a
// span phase, when the phase ran.
func (b *bench) perCall(s *spans, name, phase string) {
	total, calls := s.suffix(phase)
	if calls == 0 {
		return
	}
	b.set(name, total/float64(calls), "ms", calls, "mean per "+phase+" span")
}
