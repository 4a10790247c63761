package main

import (
	"fmt"
	"time"

	"powerlens/internal/cloud"
	"powerlens/internal/cluster"
	"powerlens/internal/core"
	"powerlens/internal/dataset"
	"powerlens/internal/features"
	"powerlens/internal/governor"
	"powerlens/internal/graph"
	"powerlens/internal/obs/ledger"
	"powerlens/internal/sim"
)

// probeMin is the least wall time a per-call cost probe accumulates before
// it divides by its call count.
const probeMin = 200 * time.Millisecond

// opCostSink keeps the op-cost probe's results live, so the compiler cannot
// drop the timed calls.
var opCostSink float64

// layers runs the traced run's per-layer probes: each times calls into one
// layer's public functions from outside, inside spans, and the counters come
// from the workload's own fleet and inputs.
func (b *bench) layers() (map[string]metric, error) {
	m := map[string]metric{}
	var err error
	b.tr.do("layers", func() { err = b.probeLayers(m) })
	return m, err
}

func (b *bench) probeLayers(m map[string]metric) error {
	if err := b.probeOffline(m); err != nil {
		return err
	}
	b.probeAnalyzeStages(m)
	b.probeOpCost(m)
	b.probeMicro(m)
	if err := b.probeMacro(m); err != nil {
		return err
	}
	b.fleetCounters(m)
	if err := b.probeLedger(m); err != nil {
		return err
	}
	fs := b.fleetStats
	m["bench.trace_overhead_ratio"] = metric{
		median(seconds(fs.traced)) / median(seconds(fs.untraced)), "ratio"}
	return nil
}

// probeOffline calls dataset.Generate and core.TrainFramework separately,
// at the workload's deploy size and seed.
func (b *bench) probeOffline(m map[string]metric) error {
	cfg := b.deployConfig(0)
	var dsA *dataset.DatasetA
	var dsB *dataset.DatasetB
	gen := b.timeIt("dataset.Generate", func() {
		dsA, dsB = dataset.Generate(b.p, dataset.DefaultConfig(cfg.NumNetworks, cfg.Seed))
	})
	var err error
	train := b.timeIt("core.TrainFramework", func() {
		_, err = core.TrainFramework(b.p, dsA, dsB, cfg, &core.DeployReport{})
	})
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	n := float64(cfg.NumNetworks)
	m["dataset.generate_ms_per_net"] = metric{float64(gen) / 1e6 / n, "ms"}
	m["dataset.blocks_per_net"] = metric{float64(len(dsB.Samples)) / n, "count"}
	m["nn.train_ms"] = metric{float64(train) / 1e6, "ms"}
	return nil
}

// probeAnalyzeStages re-runs Analyze's stages from outside on every held-out
// graph the offline phase analysed: feature extraction, the hyperparameter model's prediction,
// clustering at the analysis's hyperparameters, and the cost table and
// oracle sweep over the resulting blocks. A guard fallback is counted when
// Analyze shipped a different view than clustering produced.
func (b *bench) probeAnalyzeStages(m map[string]metric) {
	var extract, predict, table, sweep time.Duration
	var layers, blocks, sweeps, fallbacks, views int
	var viewMS []float64
	for i, a := range b.analyses {
		g, fw := b.heldOut[i], b.fws[i%len(b.fws)]
		if a == nil {
			continue
		}
		var gl features.Global
		extract += b.timeIt("features.ExtractGlobal", func() { gl = features.ExtractGlobal(g) })
		predict += b.timeIt("nn.TwoStageNet.Predict", func() {
			fw.HyperModel.Predict(fw.HyperScaler.ApplyStructural(gl.Structural), fw.HyperScaler.ApplyStats(gl.Stats))
		})
		var view *cluster.PowerView
		var err error
		d := b.timeIt("cluster.BuildPowerView", func() { view, err = cluster.BuildPowerView(g, a.Hyper) })
		if err != nil {
			b.t.fail(fmt.Errorf("cluster %s: %w", g.Name, err))
			continue
		}
		b.t.op(1, 0)
		viewMS = append(viewMS, float64(d)/1e6)
		views++
		blocks += len(view.Blocks)
		if !sameBlocks(view, a.View) {
			fallbacks++
		}
		layers += len(g.Layers)
		var ct *sim.CostTable
		table += b.timeIt("sim.NewCostTable", func() { ct = sim.NewCostTable(b.p, g) })
		for _, blk := range view.Blocks {
			sweep += b.timeIt("sim.CostTable.OptimalSegmentLevel", func() { ct.OptimalSegmentLevel(blk.StartLayer, blk.EndLayer) })
			sweeps++
		}
	}
	n := float64(views)
	m["features.extract_us_per_layer"] = metric{float64(extract) / 1e3 / float64(layers), "us"}
	m["nn.predict_us"] = metric{float64(predict) / 1e3 / n, "us"}
	m["sim.cost_table_us_per_layer"] = metric{float64(table) / 1e3 / float64(layers), "us"}
	m["sim.oracle_sweep_ns_per_block"] = metric{float64(sweep) / float64(sweeps), "ns"}
	m["cluster.blocks_per_view"] = metric{float64(blocks) / n, "count"}
	m["core.guard_fallback_frac"] = metric{float64(fallbacks) / n, "ratio"}
	// The held-out stream holds enough graphs for both percentiles.
	p50, _ := percentile(viewMS, 0.5)
	p90, _ := percentile(viewMS, 0.9)
	m["cluster.view_ms_p50"] = metric{p50, "ms"}
	m["cluster.view_ms_p90"] = metric{p90, "ms"}
}

func sameBlocks(a, b *cluster.PowerView) bool {
	if len(a.Blocks) != len(b.Blocks) {
		return false
	}
	for i := range a.Blocks {
		if a.Blocks[i].StartLayer != b.Blocks[i].StartLayer || a.Blocks[i].EndLayer != b.Blocks[i].EndLayer {
			return false
		}
	}
	return true
}

// probeOpCost times hw.GPUOpCost over the zoo's op mix at every ladder
// level.
func (b *bench) probeOpCost(m map[string]metric) {
	type op struct{ flops, bytes int64 }
	var ops []op
	for _, g := range b.zoo {
		for _, l := range g.Layers {
			if l.Kind != graph.OpInput {
				ops = append(ops, op{l.FLOPs(), l.MemBytes()})
			}
		}
	}
	calls := 0
	d := b.timeIt("hw.Platform.GPUOpCost", func() {
		for t0 := time.Now(); time.Since(t0) < probeMin; {
			for _, f := range b.p.GPUFreqsHz {
				for _, o := range ops {
					opCostSink += b.p.GPUOpCost(o.flops, o.bytes, f).EnergyJ
				}
			}
			calls += len(ops) * len(b.p.GPUFreqsHz)
		}
	})
	m["hw.op_cost_ns"] = metric{float64(d) / float64(calls), "ns"}
}

// probeMicro times uncached RunTask (no summary cache, power trace off) per
// layer-image over the zoo, under the workload's fleet controller.
func (b *bench) probeMicro(m map[string]metric) {
	const images = 4
	newCtl := b.fleetConfig().NewCtl
	var total time.Duration
	steps := 0
	for _, g := range b.zoo {
		e := sim.NewExecutor(b.p, newCtl())
		e.SensorPeriod = 0
		e.RunTask(g, 1) // warm the executor's per-graph scratch
		total += b.timeIt("sim.Executor.RunTask.micro", func() { e.RunTask(g, images) })
		steps += images * len(g.Layers)
	}
	m["sim.micro_layer_ns"] = metric{float64(total) / float64(steps), "ns"}
}

// probeMacro replays the trace sequentially on one executor over a warm
// summary cache and reports the cost per pass. The reactive fleet's BiM
// controllers cannot be macro-stepped, so its replay serves the seeded
// plans instead.
func (b *bench) probeMacro(m map[string]metric) error {
	e := sim.NewExecutor(b.p, governor.NewMultiPlan(b.seeded))
	e.SensorPeriod = 0
	e.Summaries = sim.NewSummaryCache()
	replay := func() {
		for _, j := range b.jobs {
			e.RunTask(j.Graph, j.Images)
		}
	}
	replay() // fills the cache
	d := b.timeIt("sim.Executor.RunTask.macro-replay", replay)
	passes := 0
	for _, j := range b.jobs {
		passes += j.Images
	}
	if st := e.Summaries.Stats(); st.Hits < uint64(passes) {
		return fmt.Errorf("macro replay fast-forwarded %d of %d passes", st.Hits, passes)
	}
	m["sim.macro_pass_ns"] = metric{float64(d) / float64(passes), "ns"}
	return nil
}

// fleetCounters reads the counts of the workload's own fleet: summary-cache
// effectiveness over the timed runs, passes and DVFS switches, and the
// dispatcher's distinct service keys.
func (b *bench) fleetCounters(m map[string]metric) {
	fs := b.fleetStats
	jobs := float64(len(b.jobs))
	hitsPerJob, demoted := 0.0, 0.0
	if runs := len(fs.times); runs > 0 {
		hitsPerJob = float64(fs.cache.Hits) / (jobs * float64(runs))
	}
	if n := fs.cache.Hits + fs.cache.Demoted; n > 0 {
		demoted = float64(fs.cache.Demoted) / float64(n)
	}
	m["sim.macro_hits_per_job"] = metric{hitsPerJob, "count"}
	m["sim.macro_fills"] = metric{float64(fs.cache.Fills), "count"}
	m["sim.macro_demoted_frac"] = metric{demoted, "ratio"}

	res := b.fleetRes
	switches := 0
	for _, nr := range res.Nodes {
		switches += nr.Result.Switches
	}
	m["sim.passes_per_job"] = metric{float64(res.Passes) / jobs, "count"}
	m["governor.switches_per_pass"] = metric{float64(switches) / float64(res.Passes), "count"}
	m["cloud.service_keys_per_job"] = metric{float64(serviceKeys(b.jobs)) / jobs, "count"}
	m["cloud.utilisation"] = metric{b.utilisation(), "ratio"}
}

// utilisation is the fleet's offered load: the summed service time of the
// trace's jobs, each simulated alone under the fleet's controller, over the
// node-time up to the last arrival. Below 1 the queues stay bounded.
func (b *bench) utilisation() float64 {
	cfg := b.fleetConfig()
	type key struct {
		g      *graph.Graph
		images int
	}
	service := map[key]time.Duration{}
	var busy time.Duration
	for _, j := range b.jobs {
		k := key{j.Graph, j.Images}
		d, ok := service[k]
		if !ok {
			e := sim.NewExecutor(b.p, cfg.NewCtl())
			e.SensorPeriod = 0
			e.Summaries = cfg.Macro
			d = e.RunTask(j.Graph, j.Images).Time
			service[k] = d
		}
		busy += d
	}
	span := b.jobs[len(b.jobs)-1].Arrival
	return busy.Seconds() / (float64(fleetNodes) * span.Seconds())
}

// serviceKeys counts the trace's distinct (graph digest, images) keys: the
// dispatcher dry-runs one task per key.
func serviceKeys(jobs []cloud.Job) int {
	type key struct {
		digest uint64
		images int
	}
	seen := map[key]bool{}
	for _, j := range jobs {
		seen[key{graph.Digest(j.Graph), j.Images}] = true
	}
	return len(seen)
}

// probeLedger reports the ledger export cost and size. The reactive fleet
// exports a ledger on every run; the plan fleets run the trace once more
// with a ledger attached so the same export can be timed.
func (b *bench) probeLedger(m map[string]metric) error {
	l := b.lastLedger
	exports := b.fleetStats.exports
	if l == nil {
		cfg := b.fleetConfig()
		cfg.Ledger = ledger.New()
		var res cloud.Result
		var err error
		b.tr.do("cloud.Run.ledger", func() { res, err = cloud.Run(cfg, b.jobs) })
		if err != nil {
			return fmt.Errorf("cloud.Run with ledger: %w", err)
		}
		b.checkFleetRun(res, b.jobs)
		b.t.check(checkSame("fleet headline with ledger attached", b.fleetRes.Headline(), res.Headline()))
		l = cfg.Ledger
		for i := 0; i < minFleetRuns; i++ {
			_, d, err := exportLedger(b.tr, l)
			if err != nil {
				return err
			}
			exports = append(exports, d)
		}
	}
	m["obs.ledger_export_us"] = metric{median(seconds(exports)) * 1e6, "us"}
	m["obs.ledger_cells"] = metric{float64(len(l.Snapshot().Cells)), "count"}
	return nil
}
