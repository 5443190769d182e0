// Command perfbench is smartndr's repository benchmark. One invocation
// runs one closed-loop workload from a seed, checks every output it
// produces, prints a human-readable report, and ends with one JSON line:
//
//	{"correct":…,"attempted":…,"failed":…,"metrics":{…}}
//
// With --trace 0 the metrics are the end-to-end ones (measured with
// tracing off); with --trace 1 they are the per-layer ones, taken by
// timing calls into each module from this package and by reading the
// spans and counters the program already emits through its public tracer
// hooks. README.md records why each workload exists and which layer
// metric should move which end-to-end metric.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload serve-session --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// workloads maps each workload name to its untraced and traced runs.
// BENCHMARK.json gates mc-variation and serve-session only: flow-cns and
// hier-scale expose program defects that make some of their ops wrong
// (README.md), and stay here to be run by hand.
var workloads = map[string]struct{ run, traced func(*bench) error }{
	"flow-cns":      {flowCNS, flowCNSTraced},
	"mc-variation":  {mcVariation, mcVariationTraced},
	"serve-session": {serveSession, serveSessionTraced},
	"hier-scale":    {hierScale, hierScaleTraced},
}

// endToEnd is every end-to-end metric an untraced run puts in its JSON
// line, the ones BENCHMARK.json gates. Each workload defines its own op
// (README.md). Wall-time and memory figures are printed in the report
// but not gated: host CPU steal moves them more than any useful bound.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
}

// layerMetrics is every per-layer metric a traced run puts in its JSON
// line; BENCHMARK.json's per_layer list mirrors it. A workload that does
// not call into a layer reports 0 for that layer's metrics. The hier.*
// metrics of hier-scale are printed in its report only, since no gated
// workload runs the hierarchical path.
var layerMetrics = []struct{ name, unit string }{
	{"workload.generate_ms", "ms"},
	{"cts.build_ms", "ms"},
	{"cts.cluster_ms", "ms"},
	{"cts.calibrate_ms", "ms"},
	{"cts.clusters", "count"},
	{"core.optimize_ms", "ms"},
	{"core.cleanup_ms", "ms"},
	{"core.pass_ms", "ms"},
	{"core.optimize_allocs", "count"},
	{"core.optimize_bytes", "B"},
	{"core.downgrades", "count"},
	{"core.upgrades", "count"},
	{"core.repair_rounds", "count"},
	{"core.evaluate_ms", "ms"},
	{"core.eco_apply_ms", "ms"},
	{"sta.node_visits", "count"},
	{"sta.inc_commit_ratio", "ratio"},
	{"sta.visits_per_delta", "count"},
	{"sta.analyze_ms", "ms"},
	{"variation.trial_us", "us"},
	{"variation.allocs_per_trial", "count"},
	{"serve.decode_us", "us"},
	{"serve.key_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.refused", "count"},
	{"serve.server_delta_p50_ms", "ms"},
	{"serve.delta_overhead_ms", "ms"},
	{"go.gc_cycles_per_op", "count"},
	{"go.alloc_mb_per_op", "MB"},
	{"obs.trace_overhead_pct", "%"},
}

// maxFailureLines bounds how many individual failures the report prints.
const maxFailureLines = 20

// bench is the state of one benchmark run: its parameters, the op and
// failure counts, and the metrics gathered so far.
type bench struct {
	ctx      context.Context
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool

	attempted int
	failed    int
	failLines int
	metrics   map[string]float64
	exact     []string // exact counters that repeated
	drifted   []string // exact counters that did not repeat
}

// record counts one attempted op; a non-nil err marks it failed or wrong.
func (b *bench) record(err error) {
	b.attempted++
	if err != nil {
		b.fail(err)
	}
}

// fail counts an op already recorded as attempted as failed, for checks
// that run after the timed loop.
func (b *bench) fail(err error) {
	if b.failed < b.attempted {
		b.failed++
	}
	if b.failLines < maxFailureLines {
		fmt.Printf("FAIL %v\n", err)
	}
	b.failLines++
}

// report prints one named metric with its unit and sample count.
func (b *bench) report(name string, v float64, unit string, n int, how string) {
	fmt.Printf("  %-28s %14.6g %-6s n=%-6d %s\n", name, v, unit, n, how)
}

// set stores a metric that goes into the JSON line and reports it.
func (b *bench) set(name string, v float64, unit string, n int, how string) {
	b.metrics[name] = v
	b.report(name, v, unit, n, how)
}

// exactPair records an exact counter measured twice. A difference is
// nondeterminism in the program — an exact counter does not drift with
// machine load — so it is reported as such, never averaged away. It does
// not fail an op: the outputs the counter describes are checked elsewhere.
func (b *bench) exactPair(name string, first, second float64, unit, how string) {
	b.set(name, first, unit, 2, how+" (exact)")
	if first != second {
		b.drifted = append(b.drifted, name)
		fmt.Printf("NONDETERMINISM exact counter %s read %v then %v\n", name, first, second)
		return
	}
	b.exact = append(b.exact, name)
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: flow-cns, mc-variation, serve-session or hier-scale")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", 20, "length of the measured loop, in seconds")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %v --seed N --seconds S --trace 0|1\n", names)
		return 2
	}
	b := &bench{
		ctx:      context.Background(),
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		metrics:  map[string]float64{},
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", b.workload, b.seed, *seconds, *trace)
	fn := w.run
	if b.traced {
		fn = w.traced
	}
	if err := fn(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", b.workload, err)
		return 1
	}
	if b.attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench %s: no op attempted\n", b.workload)
		return 1
	}
	if !b.traced {
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		b.report("peak_rss_mb", rss, "MB", 1, "VmHWM of the benchmark process")
	}
	fmt.Printf("  %-28s %14.6g %-6s n=%-6d failed or wrong ops / attempted ops\n",
		"error_rate", float64(b.failed)/float64(b.attempted), "ratio", b.attempted)
	return emit(b)
}

// emit prints the result line: every metric of the run's kind, each with
// its unit. A metric the run did not produce is an error for end-to-end
// runs and 0 (layer not exercised) for traced runs.
func emit(b *bench) int {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := endToEnd
	if b.traced {
		list = layerMetrics
	}
	out := map[string]metric{}
	var idle []string
	for _, m := range list {
		v, ok := b.metrics[m.name]
		if !ok {
			if !b.traced {
				fmt.Fprintf(os.Stderr, "perfbench %s: metric %s was not measured\n", b.workload, m.name)
				return 1
			}
			idle = append(idle, m.name)
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	if len(idle) > 0 {
		fmt.Printf("layers this workload does not exercise, reported as 0: %v\n", idle)
	}
	if len(b.exact) > 0 {
		fmt.Printf("exact counters, identical across two measurements: %v\n", b.exact)
	}
	if len(b.drifted) > 0 {
		fmt.Printf("NONDETERMINISM in exact counters: %v\n", b.drifted)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
