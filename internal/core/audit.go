package core

import (
	"powerlens/internal/dataset"
	"powerlens/internal/features"
	"powerlens/internal/graph"
	"powerlens/internal/obs/audit"
	"powerlens/internal/sim"
)

// DatasetBaseline folds Dataset A's raw global feature vectors — the
// training-time distribution the hyper model saw, before scaling — into a
// drift baseline. Raw vectors are what Analyze's drift hook observes too, so
// live traffic and baseline live in the same (non-negative) feature space.
func DatasetBaseline(dsA *dataset.DatasetA) *audit.Baseline {
	b := audit.NewBaseline(features.GlobalDim)
	vec := make([]float64, 0, features.GlobalDim)
	for _, s := range dsA.Samples {
		vec = append(vec[:0], s.Structural...)
		vec = append(vec, s.Stats...)
		b.Observe(vec)
	}
	return b
}

// auditAnalysis emits decision provenance for one shipped analysis: the
// network's global feature vector goes to the drift monitor, and every block
// of the final view (post-guard) gets a decision record with the chosen vs
// runner-up level and the softmax margin between them. Sampled decisions
// (every cfg.ProbeEvery-th per model) additionally run the oracle frequency
// sweep over ct, g's cost table, and record agreement/regret.
//
// Called under f.mu from analyzeUncached, so the nn forward passes here are
// serialized like the rest of the pipeline. With the plan cache enabled,
// cache hits skip the pipeline entirely and therefore emit nothing — audited
// decision counts follow distinct analyses, not plan reuse (plan applications
// are the governors' records; see internal/governor).
func (f *Framework) auditAnalysis(ct *sim.CostTable, g *graph.Graph, gl features.Global, a *Analysis) {
	rec := f.Audit
	if rec == nil {
		return
	}
	digest := graph.Digest(g)
	rec.DriftMonitor().Observe(gl.Vector())

	for i, b := range a.View.Blocks {
		bg := features.ExtractBlockGlobal(g, b.StartLayer, b.EndLayer)
		_, runner, margin := f.DecisionModel.PredictTop2(
			f.DecisionScaler.ApplyStructural(bg.Structural),
			f.DecisionScaler.ApplyStats(bg.Stats))
		chosen := a.Levels[i]
		probe := rec.RecordDecision(f.AuditTrack, g.Name, digest,
			i, chosen, f.Platform.ClampGPULevel(runner), margin, bg.Vector())
		if !probe {
			continue
		}
		oracle, energies := ct.OptimalSegmentLevel(b.StartLayer, b.EndLayer)
		regret := 0.0
		if chosen >= 0 && chosen < len(energies) && energies[oracle] > 0 {
			regret = energies[chosen]/energies[oracle] - 1
		}
		rec.RecordProbe(f.AuditTrack, g.Name, digest, i, chosen, oracle, regret)
	}
}
