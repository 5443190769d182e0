package main

import (
	"fmt"
	"math"
	"time"

	"smartndr"
	"smartndr/internal/core"
	"smartndr/internal/cts"
	"smartndr/internal/obs"
	"smartndr/internal/par"
	"smartndr/internal/sta"
	"smartndr/internal/workload"
)

// flowMinPasses is the fewest suite passes a flow-cns run times, however
// short --seconds is.
const flowMinPasses = 3

// cnsSpecs returns design set number set: the eight CNS suite shapes
// (1200–8000 sinks, four placement distributions) with placement seeds
// derived from the benchmark seed. Every pass of the timed loop flows a
// fresh set, so one run's median covers many placements.
func cnsSpecs(seed int64, set int) []workload.Spec {
	suite := workload.CNSSuite()
	for i := range suite {
		suite[i].Seed = par.SubstreamSeed(seed, set*len(suite)+i)
	}
	return suite
}

// cnsFlow is the batch flow a CLI user runs: defaults, one worker.
func cnsFlow(tr *obs.Tracer) *smartndr.Flow {
	return smartndr.NewFlow(&smartndr.FlowConfig{Workers: 1, Tracer: tr})
}

// checkCNS verifies one smart-NDR result: the technology's skew and slew
// bounds hold, smart switched cap is below the blanket-NDR tree's, and a
// from-scratch STA of the result tree reproduces the reported skew bit
// for bit. It returns the result hash, also when a check fails.
func checkCNS(f *smartndr.Flow, name string, built *smartndr.Built, res *smartndr.Result) (string, error) {
	cfg := f.Config()
	te := cfg.Tech
	m := res.Metrics
	h, err := resultHash(res.Tree, m)
	if err != nil {
		return "", err
	}
	if m.Skew > te.MaxSkew {
		return h, fmt.Errorf("%s: skew %.3f ps over the %.3f ps bound", name, m.Skew*1e12, te.MaxSkew*1e12)
	}
	if m.WorstSlew > te.MaxSlew || m.SlewViol > 0 {
		return h, fmt.Errorf("%s: worst slew %.3f ps (%d violations) over the %.3f ps bound",
			name, m.WorstSlew*1e12, m.SlewViol, te.MaxSlew*1e12)
	}
	blanket, err := f.Apply(built, smartndr.SchemeBlanket)
	if err != nil {
		return h, fmt.Errorf("%s: blanket apply: %w", name, err)
	}
	if m.SwitchedCap >= blanket.Metrics.SwitchedCap {
		return h, fmt.Errorf("%s: smart switched cap %.6g F not below blanket %.6g F",
			name, m.SwitchedCap, blanket.Metrics.SwitchedCap)
	}
	an, err := sta.Analyze(res.Tree, te, cfg.Library, cfg.InSlew)
	if err != nil {
		return h, fmt.Errorf("%s: reference STA: %w", name, err)
	}
	if got := an.Skew(); math.Float64bits(got) != math.Float64bits(m.Skew) {
		return h, fmt.Errorf("%s: reference STA skew %v differs from reported %v", name, got, m.Skew)
	}
	return h, nil
}

// runCNS flows one design and checks it, returning the flow's time and
// the result hash; the hash is empty only when the flow itself failed.
func runCNS(b *bench, f *smartndr.Flow, s workload.Spec) (opTime, string, error) {
	var (
		built *smartndr.Built
		res   *smartndr.Result
		err   error
	)
	d := timeOp(func() { built, res, err = f.RunSpec(b.ctx, s, smartndr.SchemeSmart) })
	if err != nil {
		return d, "", fmt.Errorf("%s: %w", s.Name, err)
	}
	h, err := checkCNS(f, s.Name, built, res)
	return d, h, err
}

// cnsSetup builds the flow and warms it up on the two smallest designs.
func cnsSetup(b *bench) (*smartndr.Flow, error) {
	var f *smartndr.Flow
	err := b.setSetup("flow construction + warm-up runs of the 1200- and 1600-sink shapes", func(int) error {
		f = cnsFlow(nil)
		for _, s := range cnsSpecs(b.seed, 0)[:2] {
			if _, _, err := f.RunSpec(b.ctx, s, smartndr.SchemeSmart); err != nil {
				return err
			}
		}
		return nil
	})
	return f, err
}

// flowCNS times passes over eight CNS-shaped designs, one design at a
// time through Flow.RunSpec with SchemeSmart and Workers=1.
func flowCNS(b *bench) error {
	f, err := cnsSetup(b)
	if err != nil {
		return err
	}
	var passes, cpu []float64
	sinks := 0
	var set0 []string
	start := time.Now()
	for set := 0; set < flowMinPasses || time.Since(start) < b.seconds; set++ {
		var pass opTime
		for _, s := range cnsSpecs(b.seed, set) {
			d, h, err := runCNS(b, f, s)
			b.record(err)
			pass.wall += d.wall
			pass.cpu += d.cpu
			sinks += s.Sinks
			if set == 0 {
				set0 = append(set0, h)
			}
		}
		passes = append(passes, pass.wall/1e3)
		cpu = append(cpu, pass.cpu)
	}
	// Determinism: the first set flowed again must give the same bytes.
	// Its bound checks were counted in the loop; only the hash matters here.
	for i, s := range cnsSpecs(b.seed, 0) {
		_, h, err := runCNS(b, f, s)
		if h == "" {
			b.fail(err)
		} else if h != set0[i] {
			b.fail(fmt.Errorf("%s: result hash changed between two runs of the same design", s.Name))
		}
	}
	fmt.Println("end-to-end:")
	b.report("flow_suite_s", median(passes), "s", len(passes), "median wall seconds of one pass over the eight designs")
	b.report("op_p50_ms", median(passes)*1e3, "ms", len(passes), "op = one pass over the eight designs")
	b.report("sinks_per_s", float64(sinks)/sum(passes), "1/s", len(passes)*8, "sinks flowed per wall second")
	b.set("cpu_ms_per_op", mean(cpu), "ms", len(cpu), "mean process CPU time per pass")
	return nil
}

// cnsReplay is one layer-by-layer replay of a design set, calling the
// modules Flow.RunSpec calls, in its order, with its settings.
type cnsReplay struct {
	genMS, buildMS, optMS, evalMS, analyzeMS []float64
	clusters, downgrades, upgrades, repairs  int
	allocs, bytes                            uint64
}

// With count set, core.Optimize runs under countAllocs and the replay
// yields exact allocation counts instead of timings.
func replayCNS(f *smartndr.Flow, specs []workload.Spec, want []string, count bool) (*cnsReplay, error) {
	cfg := f.Config()
	te, lib := cfg.Tech, cfg.Library
	r := &cnsReplay{}
	for i, s := range specs {
		t0 := time.Now()
		bm, err := workload.GenerateP(s, cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("%s: replay: %w", s.Name, err)
		}
		r.genMS = append(r.genMS, ms(t0))

		t0 = time.Now()
		cr, err := cts.Build(bm.Sinks, bm.Src, te, lib, cfg.CTS)
		if err != nil {
			return nil, fmt.Errorf("%s: replay: %w", s.Name, err)
		}
		r.buildMS = append(r.buildMS, ms(t0))
		r.clusters += cr.NumClusters

		// As Flow.Build then Flow.Apply: blanket rules on the built tree,
		// optimize a blanket-assigned clone.
		cr.Tree.SetAllRules(te.BlanketRule)
		t := cr.Tree.Clone()
		core.AssignAll(t, te.BlanketRule)
		var st *core.Stats
		optimize := func() error {
			var err error
			st, err = core.Optimize(t, te, lib, cfg.Opt)
			return err
		}
		if count {
			allocs, bytes, err := countAllocs(optimize)
			if err != nil {
				return nil, fmt.Errorf("%s: replay: %w", s.Name, err)
			}
			r.allocs += allocs
			r.bytes += bytes
		} else {
			t0 = time.Now()
			err := optimize()
			r.optMS = append(r.optMS, ms(t0))
			if err != nil {
				return nil, fmt.Errorf("%s: replay: %w", s.Name, err)
			}
		}
		r.downgrades += st.Downgrades
		r.upgrades += st.Upgrades
		r.repairs += st.RepairRounds

		t0 = time.Now()
		m, _, err := core.Evaluate(t, te, lib, cfg.InSlew)
		if err != nil {
			return nil, fmt.Errorf("%s: replay: %w", s.Name, err)
		}
		r.evalMS = append(r.evalMS, ms(t0))

		t0 = time.Now()
		if _, err := sta.Analyze(t, te, lib, cfg.InSlew); err != nil {
			return nil, fmt.Errorf("%s: replay: %w", s.Name, err)
		}
		r.analyzeMS = append(r.analyzeMS, ms(t0))

		h, err := resultHash(t, m)
		if err != nil {
			return nil, err
		}
		if h != want[i] {
			return nil, fmt.Errorf("%s: layer replay result differs from Flow.RunSpec", s.Name)
		}
	}
	return r, nil
}

// flowLayers replays specs layer by layer three times and sets the flow's
// per-layer metrics: the first replay gives the timings, the other two
// count allocations and give the exact counters. want holds the
// Flow.RunSpec result hash of each spec. A failed replay is counted as a
// failed op, and flowLayers then returns false.
func (b *bench) flowLayers(f *smartndr.Flow, specs []workload.Spec, want []string) bool {
	var reps [3]*cnsReplay
	for i := range reps {
		var err error
		if reps[i], err = replayCNS(f, specs, want, i > 0); err != nil {
			b.attempted++
			b.fail(err)
			return false
		}
	}
	n := len(specs)
	t := reps[0]
	b.set("workload.generate_ms", mean(t.genMS), "ms", len(t.genMS), "workload.GenerateP, replay")
	b.set("cts.build_ms", mean(t.buildMS), "ms", len(t.buildMS), "cts.Build, replay")
	b.set("core.optimize_ms", mean(t.optMS), "ms", len(t.optMS), "core.Optimize, replay")
	b.set("core.evaluate_ms", mean(t.evalMS), "ms", len(t.evalMS), "core.Evaluate, replay")
	b.set("sta.analyze_ms", mean(t.analyzeMS), "ms", len(t.analyzeMS), "sta.Analyze of each result tree, replay")
	a, r := reps[1], reps[2]
	over := fmt.Sprintf(", %d designs", n)
	b.exactPair("cts.clusters", float64(a.clusters), float64(r.clusters), "count", "leaf clusters"+over)
	b.exactPair("core.optimize_allocs", float64(a.allocs), float64(r.allocs), "count", "heap objects allocated by core.Optimize"+over)
	b.exactPair("core.optimize_bytes", float64(a.bytes), float64(r.bytes), "B", "heap bytes allocated by core.Optimize"+over)
	b.exactPair("core.downgrades", float64(a.downgrades), float64(r.downgrades), "count", "accepted rule downgrades"+over)
	b.exactPair("core.upgrades", float64(a.upgrades), float64(r.upgrades), "count", "accepted rule upgrades"+over)
	b.exactPair("core.repair_rounds", float64(a.repairs), float64(r.repairs), "count", "skew-repair invocations"+over)
	return true
}

// staCounters sets the optimizer's STA metrics from its sta.* counters
// read over n designs: node visits from two traced rounds, which must
// match exactly, and the incremental commit ratio from the first.
func (b *bench) staCounters(visits [2]float64, incRuns, fallbacks float64, n int) {
	b.exactPair("sta.node_visits", visits[0], visits[1], "count",
		fmt.Sprintf("STA node visits over %d designs, optimizer counter", n))
	if incRuns+fallbacks > 0 {
		b.set("sta.inc_commit_ratio", incRuns/(incRuns+fallbacks), "ratio", int(incRuns+fallbacks),
			"sta.inc_runs / (inc_runs + fallbacks), optimizer counters")
	}
}

// flowLayersOf measures the flow's per-layer metrics on specs without
// flow-cns's bound checks: an untraced Flow.RunSpec of each spec gives
// the result hash, two traced runs must reproduce it and give the
// optimizer's STA counters, and the layer replays must reproduce it too.
// A failed run or a differing hash is counted as a failed op.
func (b *bench) flowLayersOf(specs []workload.Spec) {
	f := cnsFlow(nil)
	want := make([]string, len(specs))
	for i, s := range specs {
		_, res, err := f.RunSpec(b.ctx, s, smartndr.SchemeSmart)
		if err == nil {
			want[i], err = resultHash(res.Tree, res.Metrics)
		}
		b.record(err)
		if err != nil {
			return
		}
	}
	var visits [2]float64
	var incRuns, fallbacks float64
	for round := range visits {
		for i, s := range specs {
			tr := obs.New(obs.NewCollector())
			_, res, err := cnsFlow(tr).RunSpec(b.ctx, s, smartndr.SchemeSmart)
			if cerr := tr.Close(); err == nil {
				err = cerr
			}
			var h string
			if err == nil {
				h, err = resultHash(res.Tree, res.Metrics)
			}
			if err == nil && h != want[i] {
				err = fmt.Errorf("%s: traced result differs from the untraced one", s.Name)
			}
			b.record(err)
			if err != nil {
				return
			}
			reg := tr.Registry()
			visits[round] += reg.Counter("sta.node_visits")
			if round == 0 {
				incRuns += reg.Counter("sta.inc_runs")
				fallbacks += reg.Counter("sta.fallbacks")
			}
		}
	}
	if b.flowLayers(f, specs, want) {
		b.staCounters(visits, incRuns, fallbacks, len(specs))
	}
}

// cnsPhases is one row of the per-design phase table.
type cnsPhases struct {
	name   string
	sinks  int
	wallMS float64
	phase  []float64
}

// cnsPhaseCols are the existing span phases the table shows.
var cnsPhaseCols = []string{
	"cts.build", "cts.build/cluster", "cts.build/calibrate",
	"core.optimize", "core.optimize/pass", "core.optimize/cleanup", "core.evaluate",
}

// flowCNSTraced measures the per-layer metrics of flow-cns on design
// set 0: untraced and traced passes alternate (trace overhead, spans,
// optimizer counters, the phase table), then layer-by-layer replays give
// direct per-module timings and the exact counters, and must reproduce
// the Flow.RunSpec bytes.
func flowCNSTraced(b *bench) error {
	f, err := cnsSetup(b)
	if err != nil {
		return err
	}
	specs := cnsSpecs(b.seed, 0)
	want := make([]string, len(specs))
	var plain, traced []float64
	sp := newSpans()
	var visits [2]float64
	var incRuns, fallbacks float64
	var table []cnsPhases
	var gc goWork
	for round := 0; round < 2; round++ {
		pass := 0.0
		mem := startMem()
		for i, s := range specs {
			d, h, err := runCNS(b, f, s)
			b.record(err)
			if h == "" {
				return nil
			}
			pass += d.wall
			if round == 0 {
				want[i] = h
			} else if h != want[i] {
				b.fail(fmt.Errorf("%s: result hash changed between two runs of the same design", s.Name))
			}
		}
		gc.add(mem, 1)
		plain = append(plain, pass)

		pass = 0.0
		for i, s := range specs {
			col := obs.NewCollector()
			tr := obs.New(col)
			d, h, err := runCNS(b, cnsFlow(tr), s)
			if cerr := tr.Close(); err == nil {
				err = cerr
			}
			b.record(err)
			if h == "" {
				return nil
			}
			if h != want[i] {
				b.fail(fmt.Errorf("%s: traced result differs from the untraced one", s.Name))
			}
			pass += d.wall
			reg := tr.Registry()
			visits[round] += reg.Counter("sta.node_visits")
			if round == 0 {
				incRuns += reg.Counter("sta.inc_runs")
				fallbacks += reg.Counter("sta.fallbacks")
				sp.add(col.Events())
				one := newSpans()
				one.add(col.Events())
				row := cnsPhases{name: s.Name, sinks: s.Sinks, wallMS: d.wall}
				for _, c := range cnsPhaseCols {
					v, _ := one.suffix(c)
					row.phase = append(row.phase, v)
				}
				table = append(table, row)
			}
		}
		traced = append(traced, pass)
	}

	printCNSTable(table)
	fmt.Println("per-layer (replay = direct calls into each module, mean per call; spans = the program's own phases):")
	if !b.flowLayers(f, specs, want) {
		return nil
	}
	b.perCall(sp, "cts.cluster_ms", "cts.build/cluster")
	b.perCall(sp, "cts.calibrate_ms", "cts.build/calibrate")
	b.perCall(sp, "core.cleanup_ms", "core.optimize/cleanup")
	b.perCall(sp, "core.pass_ms", "core.optimize/pass")
	b.staCounters(visits, incRuns, fallbacks, len(specs))
	b.reportGo(gc, "pass")
	b.reportOverhead(plain, traced, "pass")
	return nil
}

func printCNSTable(rows []cnsPhases) {
	fmt.Println("phase table (ms; spans of one traced Flow.RunSpec per design):")
	fmt.Printf("  %-6s %6s %9s", "design", "sinks", "wall")
	for _, c := range cnsPhaseCols {
		fmt.Printf(" %22s", c)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("  %-6s %6d %9.2f", r.name, r.sinks, r.wallMS)
		for _, v := range r.phase {
			fmt.Printf(" %14.2f (%4.1f%%)", v, 100*v/r.wallMS)
		}
		fmt.Println()
	}
}
