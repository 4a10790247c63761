package sim

import (
	"time"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
)

// This file implements the paper's §5 future-work extension: coordinating
// batch size with DVFS ("Recent approaches have explored synergizing DVFS
// technology with factors like batchsize" [15]). Batching amortizes weight
// traffic across images, raising arithmetic intensity and shifting both the
// roofline regime and the energy-optimal frequency of each block.

// BatchPoint is one (batch, frequency level) operating point of a network.
type BatchPoint struct {
	Batch   int
	Level   int
	EE      float64       // images per joule at this point
	Latency time.Duration // batch completion latency
}

// OptimalBatch sweeps batch sizes (powers of two up to maxBatch) and the
// full frequency ladder, returning the point with the best energy
// efficiency whose batch latency stays within latencyBudget (0 = no
// constraint). The latency constraint reflects the batching/DVFS trade-off
// of [15]: larger batches amortize weight traffic but delay completion of
// every image in the batch.
func OptimalBatch(p *hw.Platform, g *graph.Graph, maxBatch int, latencyBudget time.Duration) (best BatchPoint, sweep []BatchPoint) {
	if maxBatch < 1 {
		maxBatch = 1
	}
	n := len(g.Layers) - 1
	var ct CostTable
	for batch := 1; batch <= maxBatch; batch *= 2 {
		bp := BatchPoint{Batch: batch, Level: -1}
		ct.reset(p, g, batch)
		for lvl := range p.GPUFreqsHz {
			t, e := ct.segment(0, n, lvl)
			if latencyBudget > 0 && t > latencyBudget {
				continue
			}
			ee := float64(batch) / e
			if bp.Level == -1 || ee > bp.EE {
				bp.Level = lvl
				bp.EE = ee
				bp.Latency = t
			}
		}
		if bp.Level == -1 {
			continue // no level meets the budget at this batch
		}
		sweep = append(sweep, bp)
		if best.Level == 0 && best.Batch == 0 || bp.EE > best.EE {
			best = bp
		}
	}
	return best, sweep
}
