package governor

import (
	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/sim"
)

// This file implements the paper's §5 future-work extension "we will
// incorporate more configurable optimization options into PowerLens, such as
// CPU DVFS": PowerLensCG presets the host CPU frequency alongside the
// per-block GPU plan, instead of leaving the CPU on its ondemand governor.

// OptimalCPULevel returns the lowest CPU level whose per-image host
// processing still hides under the GPU pass (pipelined execution), i.e. the
// level that minimizes CPU energy without making the host the bottleneck.
// gpuImageTime is the GPU time of one inference pass at the planned
// frequencies; slack (0..1] is the fraction of it the host may consume.
func OptimalCPULevel(p *hw.Platform, gpuImageTime float64, slack float64) int {
	if slack <= 0 || slack > 1 {
		slack = 0.9
	}
	budget := gpuImageTime * slack
	best := len(p.CPUFreqsHz) - 1
	bestE := -1.0
	for lvl, f := range p.CPUFreqsHz {
		t := p.CPUWorkPerImage / f
		if t > budget {
			continue // would stall the GPU pipeline
		}
		e := p.CPUBusyPower(f) * t
		if bestE < 0 || e < bestE {
			best, bestE = lvl, e
		}
	}
	return best
}

// PlanCPULevel computes the preset CPU level for a frequency plan by
// estimating the plan's per-image GPU time from the block levels.
func PlanCPULevel(p *hw.Platform, g *graph.Graph, plan *FrequencyPlan) int {
	ct := sim.NewCostTable(p, g)
	total := 0.0
	level := p.NumGPULevels() / 2
	for _, l := range g.Layers {
		if lvl, ok := plan.Points[l.ID]; ok {
			level = p.ClampGPULevel(lvl)
		}
		if l.Kind == graph.OpInput {
			continue
		}
		total += ct.OpCost(l.ID, level).Time.Seconds()
	}
	return OptimalCPULevel(p, total, 0.9)
}

// PowerLensCG is PowerLens with coordinated CPU DVFS: the GPU follows the
// per-block plan and the CPU is preset to the most efficient level that
// keeps host pre-processing hidden under the GPU pass.
type PowerLensCG struct {
	PowerLens
	CPU int // preset CPU ladder level
}

// NewPowerLensCG builds the coordinated controller for one model.
func NewPowerLensCG(p *hw.Platform, g *graph.Graph, plan *FrequencyPlan) *PowerLensCG {
	return &PowerLensCG{
		PowerLens: PowerLens{Plan: plan},
		CPU:       PlanCPULevel(p, g, plan),
	}
}

func (pl *PowerLensCG) Name() string { return "PowerLens-CG" }

// CPULevel implements sim.Controller.
func (pl *PowerLensCG) CPULevel() int { return pl.CPU }

var _ sim.Controller = (*PowerLensCG)(nil)
