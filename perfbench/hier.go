package main

import (
	"errors"
	"fmt"
	"time"

	"smartndr"
	"smartndr/internal/obs"
	"smartndr/internal/par"
	"smartndr/internal/workload"
)

const (
	hierSinks     = 100_000
	hierRegionCap = 2048 // Hier.MaxRegionSinks
	hierWorkers   = 2
	hierMinRuns   = 2
	hierGenerateN = 3 // workload.GenerateP calls timed in the traced run
	// hierWarmSinks sizes the set-up's warm-up run: large enough to take
	// the hierarchical path, small enough to keep set-up near a second.
	hierWarmSinks = 20_000
)

func hierSpec(seed int64) workload.Spec {
	return workload.Scale("scale100k", hierSinks, par.SubstreamSeed(seed, 1<<12))
}

func hierFlow(tr *obs.Tracer) *smartndr.Flow {
	return smartndr.NewFlow(&smartndr.FlowConfig{
		Workers: hierWorkers,
		Hier:    smartndr.HierConfig{MaxRegionSinks: hierRegionCap},
		Tracer:  tr,
	})
}

// hierSetup builds the flow, generates the spec once (checking that
// sharded generation yields every sink) and warms the hierarchical path
// up on a smaller design of the same family.
func hierSetup(b *bench) (*smartndr.Flow, workload.Spec, error) {
	spec := hierSpec(b.seed)
	var f *smartndr.Flow
	err := b.setSetup("flow construction + 100K-sink generation + 20K-sink warm-up run", func(int) error {
		f = hierFlow(nil)
		bm, err := workload.GenerateP(spec, hierWorkers)
		if err != nil {
			return err
		}
		if len(bm.Sinks) != hierSinks {
			return fmt.Errorf("generated %d sinks, want %d", len(bm.Sinks), hierSinks)
		}
		warm := workload.Scale("scale20k", hierWarmSinks, spec.Seed)
		_, _, err = f.RunSpec(b.ctx, warm, smartndr.SchemeSmart)
		return err
	})
	return f, spec, err
}

// runHier runs the spec once and checks the hierarchical result: at
// least two regions and global skew within the technology budget. It
// returns the run's time, the region count and the result hash.
func runHier(b *bench, f *smartndr.Flow, spec workload.Spec) (opTime, int, string, error) {
	var (
		built *smartndr.Built
		res   *smartndr.Result
		err   error
	)
	d := timeOp(func() { built, res, err = f.RunSpec(b.ctx, spec, smartndr.SchemeSmart) })
	if err != nil {
		return d, 0, "", err
	}
	h, err := resultHash(res.Tree, res.Metrics)
	if err != nil {
		return d, 0, "", err
	}
	te := f.Config().Tech
	switch {
	case built.NumClusters < 2:
		err = fmt.Errorf("%s: %d regions — the hierarchical path was not taken", spec.Name, built.NumClusters)
	case res.Metrics.Skew > te.MaxSkew:
		err = fmt.Errorf("%s: global skew %.3f ps over the %.3f ps budget", spec.Name, res.Metrics.Skew*1e12, te.MaxSkew*1e12)
	}
	return d, built.NumClusters, h, err
}

// hierScale times 100K-sink hierarchical runs, one per op.
func hierScale(b *bench) error {
	f, spec, err := hierSetup(b)
	if err != nil {
		return err
	}
	var runs, cpu []float64
	var first string
	start := time.Now()
	for i := 0; i < hierMinRuns || time.Since(start) < b.seconds; i++ {
		d, _, h, err := runHier(b, f, spec)
		if i == 0 {
			first = h
		} else if h != "" && h != first {
			err = errors.Join(err, fmt.Errorf("%s: result hash changed between two runs", spec.Name))
		}
		b.record(err)
		runs = append(runs, d.wall)
		cpu = append(cpu, d.cpu)
	}
	fmt.Println("end-to-end:")
	b.report("hier_run_s", median(runs)/1e3, "s", len(runs), "median wall seconds of one 100K-sink run")
	b.report("op_p50_ms", median(runs), "ms", len(runs), "op = one 100K-sink Flow.RunSpec")
	b.set("cpu_ms_per_op", mean(cpu), "ms", len(cpu), "mean process CPU time per run (both workers)")
	return nil
}

// hierScaleTraced times sharded generation, then one untraced and one
// traced run: the traced run's spans give the hier phases, and both runs
// must agree on the region count (exact) and the result bytes.
func hierScaleTraced(b *bench) error {
	f, spec, err := hierSetup(b)
	if err != nil {
		return err
	}
	var gen []float64
	for i := 0; i < hierGenerateN; i++ {
		t0 := time.Now()
		_, err := workload.GenerateP(spec, hierWorkers)
		gen = append(gen, ms(t0))
		b.record(err)
	}
	mem := startMem()
	plain, regions0, h0, err := runHier(b, f, spec)
	var gw goWork
	gw.add(mem, 1)
	b.record(err)

	col := obs.NewCollector()
	tr := obs.New(col)
	traced, regions1, h1, err := runHier(b, hierFlow(tr), spec)
	if cerr := tr.Close(); err == nil {
		err = cerr
	}
	if h1 != "" && h1 != h0 {
		err = errors.Join(err, fmt.Errorf("%s: traced result differs from the untraced one", spec.Name))
	}
	b.record(err)

	fmt.Println("per-layer:")
	sp := newSpans()
	sp.add(col.Events())
	b.set("workload.generate_ms", mean(gen), "ms", len(gen), "workload.GenerateP of the sharded 100K spec, Workers=2")
	b.perCall(sp, "hier.partition_ms", "hier.partition")
	b.perCall(sp, "hier.regions_ms", "hier.regions")
	b.perCall(sp, "hier.top_embed_ms", "hier.top_embed")
	b.perCall(sp, "hier.balance_ms", "hier.balance")
	b.perCall(sp, "cts.build_ms", "cts.build")
	b.perCall(sp, "core.evaluate_ms", "core.evaluate")
	b.perCall(sp, "sta.analyze_ms", "sta.analyze")
	b.exactPair("hier.regions", float64(regions0), float64(regions1), "count", "partitioned regions, untraced and traced run")
	b.reportGo(gw, "run")
	b.reportOverhead([]float64{plain.wall}, []float64{traced.wall}, "run")
	return nil
}
