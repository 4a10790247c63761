package main

import (
	"fmt"

	"powerlens/internal/core"
	"powerlens/internal/governor"
	"powerlens/internal/graph"
	"powerlens/internal/sim"
)

// zooEval is one zoo model's simulated task under each framework's plan, BiM
// and every static GPU level.
type zooEval struct {
	Model  string
	Plans  []sim.Result // one per framework whose analysis of the model passed
	BiM    sim.Result
	Static []sim.Result
}

// prepareOffline runs the part of the paper's offline workflow that the
// timed activities depend on: a discarded warm-up deployment, the first
// deployFrameworks timed deployments (each on the network set of its own
// sub-seed), their zoo plans, and the zoo evaluation behind ee_vs_bim and
// ee_vs_static.
func (b *bench) prepareOffline(e2e map[string]metric) error {
	warm := b.deployConfig(0)
	warm.NumNetworks = 10
	if _, _, err := core.Deploy(b.p, warm); err != nil {
		return fmt.Errorf("warm-up deploy: %w", err)
	}
	b.fws, b.deployTimes = b.fws[:0], b.deployTimes[:0]
	for len(b.fws) < deployFrameworks {
		fw, err := b.deploy()
		if err != nil {
			return err
		}
		b.fws = append(b.fws, fw)
	}

	// Zoo plans per framework; the zoo analyses also warm the pipeline.
	b.plans = b.plans[:0]
	for _, fw := range b.fws {
		b.plans = append(b.plans, b.analyzeZoo(fw))
	}

	// The zoo evaluation runs twice: simulated results must repeat exactly.
	b.tr.do("zoo.evaluate", func() { b.zooEvals = b.evaluateZoo(b.plans) })
	b.t.check(checkSame("zoo evaluation repeat", b.zooEvals, b.evaluateZoo(b.plans)))
	vsBiM, vsStatic, err := eeRatios(b.zooEvals)
	if err != nil {
		return err
	}
	e2e["ee_vs_bim"] = metric{vsBiM, "ratio"}
	e2e["ee_vs_static"] = metric{vsStatic, "ratio"}
	return nil
}

// deployConfig is the k-th deployment of the run: the workload's network
// count on the sub-seed seed*deploySeedStride + k, so the deployment rate
// averages over several training sets.
func (b *bench) deployConfig(k int) core.DeployConfig {
	cfg := core.DefaultDeployConfig()
	cfg.NumNetworks, cfg.Seed = deployNets, b.seed*deploySeedStride+int64(k)
	return cfg
}

// deploy times the run's next core.Deploy.
func (b *bench) deploy() (*core.Framework, error) {
	cfg := b.deployConfig(len(b.deployTimes))
	var fw *core.Framework
	var err error
	d := b.timeIt("core.Deploy", func() { fw, _, err = core.Deploy(b.p, cfg) })
	b.t.op(1, 0)
	if err != nil {
		return nil, fmt.Errorf("deploy %d networks: %w", cfg.NumNetworks, err)
	}
	b.deployTimes = append(b.deployTimes, d)
	return fw, nil
}

// offlineActivities returns the timed deployments beyond the prepared ones
// (whose time counts toward the deployments' share) and the uncached Analyze
// of the held-out stream, cycled until the deadline so its latencies sample
// the whole run. The kept frameworks take the graphs in turn, shifted by one
// on every pass, so a graph meets a different framework each time.
func (b *bench) offlineActivities() []*activity {
	deploys := &activity{
		share:  b.w.deployShare,
		step:   func() error { _, err := b.deploy(); return err },
		enough: func() bool { return len(b.deployTimes) >= minDeploys },
	}
	for _, d := range b.deployTimes {
		deploys.spent += d
	}
	b.analyses = make([]*core.Analysis, 0, len(b.heldOut))
	b.analyzeMS = b.analyzeMS[:0]
	calls := 0
	analyze := &activity{
		share: b.w.analyzeShare,
		step: func() error {
			i, pass := calls%len(b.heldOut), calls/len(b.heldOut)
			calls++
			g, fw := b.heldOut[i], b.fws[(i+pass)%len(b.fws)]
			var a *core.Analysis
			var err error
			d := b.timeIt("core.Framework.Analyze", func() { a, err = fw.Analyze(g) })
			if calls <= len(b.heldOut) {
				b.analyses = append(b.analyses, a)
			}
			if err != nil {
				b.t.fail(fmt.Errorf("analyze %s: %w", g.Name, err))
				return nil
			}
			b.t.op(1, 0)
			b.analyzeMS = append(b.analyzeMS, float64(d)/1e6)
			return nil
		},
		enough: func() bool { return calls >= len(b.heldOut) },
	}
	return []*activity{deploys, analyze}
}

// offlineMetrics reduces the offline activities' samples.
func (b *bench) offlineMetrics(e2e map[string]metric) error {
	e2e["deploy_nets_per_s"] = metric{median(rates(deployNets, b.deployTimes)), "nets/s"}
	p50, err := percentile(b.analyzeMS, 0.5)
	if err != nil {
		return fmt.Errorf("analyze latency: %w", err)
	}
	p90, err := percentile(b.analyzeMS, 0.9)
	if err != nil {
		return fmt.Errorf("analyze latency: %w", err)
	}
	e2e["analyze_ms_p50"] = metric{p50, "ms"}
	e2e["analyze_ms_p90"] = metric{p90, "ms"}
	return nil
}

// analyzeZoo analyses every zoo model with fw, checks each plan, and returns
// the plans by model name.
func (b *bench) analyzeZoo(fw *core.Framework) map[string]*governor.FrequencyPlan {
	plans := make(map[string]*governor.FrequencyPlan, len(b.zoo))
	for _, g := range b.zoo {
		var a *core.Analysis
		var err error
		b.tr.do("core.Framework.Analyze.zoo", func() { a, err = fw.Analyze(g) })
		if err != nil {
			b.t.fail(fmt.Errorf("analyze %s: %w", g.Name, err))
			continue
		}
		b.t.op(1, 0)
		if err := checkPlan(b.p, g, a); err != nil {
			b.t.check(err)
			continue
		}
		b.t.check(nil)
		plans[g.Name] = a.Plan
	}
	return plans
}

// evaluateZoo simulates each zoo model as a zooImages-image task under every
// framework's plan for it, BiM and every static level.
func (b *bench) evaluateZoo(plans []map[string]*governor.FrequencyPlan) []zooEval {
	var evs []zooEval
	for _, g := range b.zoo {
		ev := zooEval{Model: g.Name, BiM: b.simulate(g, governor.NewOndemand())}
		for _, ps := range plans {
			if plan := ps[g.Name]; plan != nil {
				ev.Plans = append(ev.Plans, b.simulate(g, governor.NewPowerLens(plan)))
			}
		}
		for l := 0; l < b.p.NumGPULevels(); l++ {
			ev.Static = append(ev.Static, b.simulate(g, governor.NewStatic(l)))
		}
		evs = append(evs, ev)
	}
	return evs
}

func (b *bench) simulate(g *graph.Graph, ctl sim.Controller) sim.Result {
	e := sim.NewExecutor(b.p, ctl)
	e.SensorPeriod = 0
	return e.RunTask(g, zooImages)
}

// eeRatios returns the geometric means, over every (framework, zoo model)
// plan, of EE(plan)/EE(BiM) and of EE(plan)/EE(best static level).
func eeRatios(evs []zooEval) (vsBiM, vsStatic float64, err error) {
	var rb, rs []float64
	for _, ev := range evs {
		best := 0.0
		for _, r := range ev.Static {
			best = max(best, r.EE())
		}
		for _, r := range ev.Plans {
			rb = append(rb, r.EE()/ev.BiM.EE())
			rs = append(rs, r.EE()/best)
		}
	}
	if vsBiM, err = geomean(rb); err != nil {
		return 0, 0, fmt.Errorf("ee_vs_bim: %w", err)
	}
	if vsStatic, err = geomean(rs); err != nil {
		return 0, 0, fmt.Errorf("ee_vs_static: %w", err)
	}
	return vsBiM, vsStatic, nil
}
