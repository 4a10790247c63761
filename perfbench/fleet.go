package main

import (
	"bytes"
	"fmt"
	"time"

	"powerlens/internal/cloud"
	"powerlens/internal/obs"
	"powerlens/internal/obs/ledger"
	"powerlens/internal/sim"
)

// fleetStats keeps what the traced run reads back from the timed fleet
// runs.
type fleetStats struct {
	times            []time.Duration       // timed runs
	cache            sim.SummaryCacheStats // deltas over the timed runs
	traced, untraced []time.Duration       // timed runs with spans on / off
	exports          []time.Duration       // ledger export times
}

// prepareFleet makes the fleet's warm-up run, discarded from timing. A plan
// fleet's first full warm run is markedly slower than later ones, and one
// costs a fraction of a second, so it warms up on the whole trace; a full
// reactive run costs about ten seconds, and its first one is not slower, so
// it warms up on a prefix.
func (b *bench) prepareFleet() error {
	warm := b.jobs
	if b.w.fleet == reactive {
		warm = warm[:min(reactiveWarmupJobs, len(warm))]
	}
	_, _, err := b.runFleet(b.fleetConfig(), warm, "cloud.Run.warmup")
	if err != nil {
		return err
	}
	if b.cache != nil {
		b.cacheBefore = b.cache.Stats()
	}
	return nil
}

// fleetActivity returns the timed fleet runs. Every run must complete every
// job, and every run after the first must repeat the first's simulated
// result, and the reactive fleet's ledger export, exactly.
func (b *bench) fleetActivity() *activity {
	cfg := b.fleetConfig()
	fs := &b.fleetStats
	return &activity{
		share: b.w.fleetShare,
		step: func() error {
			// The traced run alternates spans off and on, so the two halves
			// give the tracing overhead.
			spans := len(fs.times)%2 == 1
			if b.tr != nil {
				b.tr.paused = !spans
				defer func() { b.tr.paused = false }()
			}
			t0 := time.Now()
			res, prom, err := b.runFleet(cfg, b.jobs, "cloud.Run")
			d := time.Since(t0)
			if err != nil {
				return err
			}
			if len(fs.times) == 0 {
				b.fleetRes, b.fleetProm = res, prom
			} else {
				b.t.check(checkSame("fleet result repeat", b.fleetRes, res))
				if b.w.fleet == reactive {
					b.t.check(checkSame("ledger export repeat", b.fleetProm, prom))
				}
			}
			fs.times = append(fs.times, d)
			if spans {
				fs.traced = append(fs.traced, d)
			} else {
				fs.untraced = append(fs.untraced, d)
			}
			return nil
		},
		enough: func() bool { return len(fs.times) >= minFleetRuns },
	}
}

// fleetMetrics reduces the timed fleet runs, takes the summary cache's
// counts over them, and checks the macro-stepped fleet against its
// micro-stepped reference.
func (b *bench) fleetMetrics(e2e map[string]metric) {
	fs := &b.fleetStats
	if b.cache != nil {
		after := b.cache.Stats()
		fs.cache = sim.SummaryCacheStats{
			Hits:    after.Hits - b.cacheBefore.Hits,
			Misses:  after.Misses - b.cacheBefore.Misses,
			Fills:   after.Fills,
			Aborts:  after.Aborts - b.cacheBefore.Aborts,
			Demoted: after.Demoted - b.cacheBefore.Demoted,
		}
		b.checkMacroPrefix(b.fleetConfig())
	}
	e2e["jobs_per_s"] = metric{median(rates(float64(len(b.jobs)), fs.times)), "jobs/s"}
	e2e["fleet_ee_img_per_j"] = metric{b.fleetRes.EE(), "img/J"}
	e2e["turnaround_s"] = metric{b.fleetRes.MeanTurnaround.Seconds(), "s"}
}

// runFleet runs jobs once. The reactive fleet attaches a fresh ledger and
// exports it through the obs registry as Prometheus text, which is part of
// the timed work; the text is returned for the repeat check.
func (b *bench) runFleet(cfg cloud.Config, jobs []cloud.Job, span string) (cloud.Result, []byte, error) {
	if b.w.fleet == reactive {
		cfg.Ledger = ledger.New()
	}
	var res cloud.Result
	var err error
	b.tr.do(span, func() { res, err = cloud.Run(cfg, jobs) })
	if err != nil {
		return res, nil, fmt.Errorf("cloud.Run: %w", err)
	}
	b.checkFleetRun(res, jobs)
	if cfg.Ledger == nil {
		return res, nil, nil
	}
	prom, d, err := exportLedger(b.tr, cfg.Ledger)
	if err != nil {
		return res, nil, err
	}
	b.lastLedger = cfg.Ledger
	b.fleetStats.exports = append(b.fleetStats.exports, d)
	return res, prom, nil
}

// exportLedger publishes l into a fresh registry and renders it as
// Prometheus text, returning the text and the time both steps took.
func exportLedger(tr *tracer, l *ledger.Ledger) ([]byte, time.Duration, error) {
	var buf bytes.Buffer
	var err error
	t0 := time.Now()
	tr.do("ledger.export", func() {
		reg := obs.NewRegistry()
		l.ExportTo(reg)
		err = reg.WritePrometheus(&buf)
	})
	d := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("ledger export: %w", err)
	}
	return buf.Bytes(), d, nil
}

// checkMacroPrefix checks that the macro-stepped fleet's result on a prefix
// of the trace equals, bit for bit, the micro-stepped TraceOff reference.
func (b *bench) checkMacroPrefix(cfg cloud.Config) {
	prefix := b.jobs[:min(prefixJobs, len(b.jobs))]
	micro := cfg
	micro.Macro, micro.TraceOff = nil, true
	var macroRes, microRes cloud.Result
	var err1, err2 error
	b.tr.do("cloud.Run.prefix-check", func() {
		macroRes, err1 = cloud.Run(cfg, prefix)
		microRes, err2 = cloud.Run(micro, prefix)
	})
	if err1 != nil || err2 != nil {
		b.t.fail(fmt.Errorf("macro prefix check: %v / %v", err1, err2))
		return
	}
	b.checkFleetRun(macroRes, prefix)
	b.checkFleetRun(microRes, prefix)
	b.t.check(checkSame(fmt.Sprintf("macro vs micro fleet on a %d-job prefix", len(prefix)), macroRes, microRes))
}
