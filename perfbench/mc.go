package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"smartndr"
	"smartndr/internal/ctree"
	"smartndr/internal/obs"
	"smartndr/internal/par"
	"smartndr/internal/sta"
	"smartndr/internal/variation"
	"smartndr/internal/workload"
)

const (
	mcTrials  = 100 // trials per Monte Carlo batch
	mcWorkers = 2   // trial workers; the machine this was tuned on has 2 cores
	// mcSeeds is how many trial seeds each design cycles through, so every
	// seed recurs and a recurring batch must repeat its Stats exactly.
	mcSeeds      = 4
	mcMinBatches = 20
)

// mcSpecs returns the two mid-size designs of set-up repetition rep: the
// 3000-sink grid and the 4000-sink clustered CNS shapes, placed from the
// benchmark seed. Each repetition places them afresh, so the median
// set-up time covers several placements and does not hinge on one.
func mcSpecs(seed int64, rep int) []workload.Spec {
	suite := workload.CNSSuite()
	out := []workload.Spec{suite[4], suite[5]}
	for i := range out {
		out[i].Seed = par.SubstreamSeed(seed, 1<<16+rep<<4+i)
	}
	return out
}

// mcParams is trial seed number i of the run.
func mcParams(seed int64, i int) variation.Params {
	p := variation.Defaults(par.SubstreamSeed(seed, 1<<17+i))
	p.Samples = mcTrials
	return p
}

// statsHash is the content hash of a Monte Carlo result. JSON renders
// every float in its shortest exact form, so equal hashes mean equal bits.
func statsHash(st *variation.Stats) (string, error) {
	j, err := json.Marshal(st)
	if err != nil {
		return "", fmt.Errorf("hashing Monte Carlo stats: %w", err)
	}
	sum := sha256.Sum256(j)
	return hex.EncodeToString(sum[:]), nil
}

// mcState is what the mc-variation set-up builds: two smart-NDR trees
// and, per tree, the hash of a Workers=1 batch at trial seed 0.
type mcState struct {
	flow  *smartndr.Flow
	trees []*ctree.Tree
	ref   []string
}

func mcSetup(b *bench) (*mcState, error) {
	var st *mcState
	err := b.setSetup("smart-NDR builds of two designs + one Workers=1 reference batch each", func(rep int) error {
		st = &mcState{flow: smartndr.NewFlow(&smartndr.FlowConfig{Workers: mcWorkers})}
		for _, s := range mcSpecs(b.seed, rep) {
			_, res, err := st.flow.RunSpec(b.ctx, s, smartndr.SchemeSmart)
			if err != nil {
				return err
			}
			p := mcParams(b.seed, 0)
			p.Workers = 1
			ref, err := st.flow.MonteCarlo(res.Tree, p)
			if err != nil {
				return err
			}
			h, err := statsHash(ref)
			if err != nil {
				return err
			}
			st.trees = append(st.trees, res.Tree)
			st.ref = append(st.ref, h)
		}
		return nil
	})
	return st, err
}

// mcChecker holds the first Stats hash seen per (design, trial seed).
type mcChecker struct {
	st   *mcState
	seen map[[2]int]string
}

// check verifies batch k's result against earlier batches of the same
// design and seed, and against the Workers=1 reference.
func (c *mcChecker) check(k int, st *variation.Stats) error {
	d, si := k%2, (k/2)%mcSeeds
	if len(st.Samples) != mcTrials {
		return fmt.Errorf("batch %d: %d samples, want %d", k, len(st.Samples), mcTrials)
	}
	h, err := statsHash(st)
	if err != nil {
		return err
	}
	if si == 0 && h != c.st.ref[d] {
		return fmt.Errorf("batch %d: Stats differ from the Workers=1 reference batch", k)
	}
	key := [2]int{d, si}
	if prev, ok := c.seen[key]; ok && prev != h {
		return fmt.Errorf("batch %d: Stats differ from an earlier batch with the same seed", k)
	}
	c.seen[key] = h
	return nil
}

// mcBatch runs batch k through the flow and times it.
func mcBatch(b *bench, f *smartndr.Flow, c *mcChecker, k int) opTime {
	var (
		st  *variation.Stats
		err error
	)
	d := timeOp(func() { st, err = f.MonteCarlo(c.st.trees[k%2], mcParams(b.seed, (k/2)%mcSeeds)) })
	if err == nil {
		err = c.check(k, st)
	}
	b.record(err)
	return d
}

// mcVariation times Flow.MonteCarlo batches of 100 trials at Workers=2,
// alternating the two designs. No cts or core.optimize runs in the loop.
func mcVariation(b *bench) error {
	st, err := mcSetup(b)
	if err != nil {
		return err
	}
	c := &mcChecker{st: st, seen: map[[2]int]string{}}
	var batches, cpu []float64
	start := time.Now()
	for k := 0; k < mcMinBatches || time.Since(start) < b.seconds; k++ {
		d := mcBatch(b, st.flow, c, k)
		batches = append(batches, d.wall)
		cpu = append(cpu, d.cpu)
	}
	trialsPerS := float64(len(batches)*mcTrials) / (sum(batches) / 1e3)
	fmt.Println("end-to-end:")
	b.report("mc_trials_per_s", trialsPerS, "1/s", len(batches)*mcTrials, "Monte Carlo trials per second")
	b.report("mc_batch_p50_ms", median(batches), "ms", len(batches), "median 100-trial batch")
	b.report("mc_batch_p90_ms", quantile(batches, 0.9), "ms", len(batches), "p90 100-trial batch")
	b.report("op_p50_ms", median(batches), "ms", len(batches), "op = one 100-trial Monte Carlo batch")
	b.set("cpu_ms_per_op", mean(cpu), "ms", len(cpu), "mean process CPU time per batch (both workers)")
	return nil
}

// mcVariationTraced alternates untraced and traced Flow.MonteCarlo
// batches (trace overhead, Go runtime work), then times direct
// variation.MonteCarlo calls, their allocations per trial (measured
// twice, exact) and a full sta.Analyze of each tree.
func mcVariationTraced(b *bench) error {
	st, err := mcSetup(b)
	if err != nil {
		return err
	}
	c := &mcChecker{st: st, seen: map[[2]int]string{}}
	tr := obs.New(obs.NewSpanObserver(nil))
	tflow := smartndr.NewFlow(&smartndr.FlowConfig{Workers: mcWorkers, Tracer: tr})
	var plain, traced []float64
	var gw goWork
	half := b.seconds / 2
	start := time.Now()
	for k := 0; k < mcMinBatches || time.Since(start) < half; k++ {
		mem := startMem()
		plain = append(plain, mcBatch(b, st.flow, c, k).wall)
		gw.add(mem, 1)
		traced = append(traced, mcBatch(b, tflow, c, k).wall)
	}
	if err := tr.Close(); err != nil {
		return err
	}

	cfg := st.flow.Config()
	te, lib := cfg.Tech, cfg.Library
	var direct []float64
	start = time.Now()
	for k := 0; k < mcMinBatches || time.Since(start) < half; k++ {
		p := mcParams(b.seed, (k/2)%mcSeeds)
		p.Workers = mcWorkers
		t0 := time.Now()
		res, err := variation.MonteCarlo(st.trees[k%2], te, lib, p)
		direct = append(direct, ms(t0))
		if err == nil {
			err = c.check(k, res)
		}
		b.record(err)
	}
	// Allocations are counted on the serial path: with two workers the
	// count depends on how the scheduler hands out trials.
	var allocs [2]float64
	for i := range allocs {
		p := mcParams(b.seed, 0)
		p.Workers = 1
		n, _, err := countAllocs(func() error {
			_, err := variation.MonteCarlo(st.trees[0], te, lib, p)
			return err
		})
		b.record(err)
		allocs[i] = float64(n) / mcTrials
	}
	var analyze []float64
	for i := 0; i < 4; i++ {
		for _, t := range st.trees {
			t0 := time.Now()
			_, err := sta.Analyze(t, te, lib, cfg.InSlew)
			analyze = append(analyze, ms(t0))
			b.record(err)
		}
	}
	fmt.Println("per-layer:")
	b.set("variation.trial_us", median(direct)*1e3/mcTrials, "us", len(direct),
		"median direct variation.MonteCarlo batch / 100 trials, Workers=2")
	b.exactPair("variation.allocs_per_trial", allocs[0], allocs[1], "count",
		"heap objects per trial of one variation.MonteCarlo batch, Workers=1")
	b.set("sta.analyze_ms", mean(analyze), "ms", len(analyze), "sta.Analyze of each smart-NDR tree")
	b.reportGo(gw, "100-trial batch")
	b.reportOverhead(plain, traced, "100-trial batch")
	return nil
}
