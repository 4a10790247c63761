// Package core is the public face of the PowerLens framework (Fig. 2): the
// offline deployment workflow (dataset generation → model training) and the
// per-model analysis workflow (feature extraction → hyperparameter
// prediction → power behavior similarity clustering → per-block target
// frequency decisions → a runtime frequency plan).
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"powerlens/internal/checkpoint"
	"powerlens/internal/cluster"
	"powerlens/internal/dataset"
	"powerlens/internal/features"
	"powerlens/internal/governor"
	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/nn"
	"powerlens/internal/obs/audit"
	"powerlens/internal/sim"
)

// Framework is a trained PowerLens deployment for one hardware platform.
type Framework struct {
	Platform *hw.Platform
	Grid     []cluster.Hyperparams

	HyperModel  *nn.TwoStageNet
	HyperScaler *nn.FacetScaler

	DecisionModel  *nn.TwoStageNet
	DecisionScaler *nn.FacetScaler

	// mu serializes uncached analysis: the nn forward pass caches activations
	// in layer state and the clustering scratch below is shared, so the
	// pipeline itself is single-writer. Concurrent serving goes through the
	// plan cache, which only takes mu on a miss.
	mu      sync.Mutex
	scratch cluster.Scratch // reusable clustering buffers, guarded by mu

	cacheMu sync.Mutex
	cache   *planCache // nil until EnablePlanCache

	// Audit, when set, receives a decision-provenance record (and sampled
	// calibration probes) for every block decision Analyze ships, on track
	// AuditTrack; the attached drift monitor sees each analyzed network's
	// global feature vector. Nil keeps analysis bit-identical to a recorder-
	// free build. See internal/obs/audit and audit.go in this package.
	Audit      *audit.Recorder
	AuditTrack int

	// Baseline is the training-time distribution of Dataset A's raw global
	// feature vectors, filled by TrainFrameworkCheckpointed. It seeds drift
	// monitors and is persisted as the baseline.plqs run artifact.
	Baseline *audit.Baseline
}

// DeployConfig controls the offline deployment workflow.
type DeployConfig struct {
	NumNetworks int   // random networks for dataset generation
	Seed        int64 // master seed (datasets, splits, model init)

	HyperTrain    nn.TrainConfig
	DecisionTrain nn.TrainConfig
}

// DefaultDeployConfig returns a configuration that trains usable models in
// seconds (the full-scale 8000-network run of the paper is reached by
// raising NumNetworks; see cmd/trainer).
func DefaultDeployConfig() DeployConfig {
	ht := nn.DefaultTrainConfig()
	ht.Epochs = 80
	dt := nn.DefaultTrainConfig()
	dt.Epochs = 60
	return DeployConfig{NumNetworks: 400, Seed: 1, HyperTrain: ht, DecisionTrain: dt}
}

// DeployReport records the offline overhead and model quality of a
// deployment — the data behind Table 3 and the Fig. 3/4 accuracy claims.
type DeployReport struct {
	NumNetworks int
	NumBlocks   int // dataset B size

	DatasetTime       time.Duration
	HyperTrainTime    time.Duration
	DecisionTrainTime time.Duration

	HyperAccuracy          float64
	DecisionAccuracy       float64
	DecisionMeanLevelError float64

	// DecisionConfusion is the decision model's test-set confusion matrix
	// (rows = oracle levels, cols = predictions).
	DecisionConfusion *nn.Confusion
}

// Deploy runs the complete offline workflow on a platform: generate Datasets
// A and B, train the clustering hyperparameter prediction model and the
// target frequency decision model, and evaluate both on held-out test sets.
// No human intervention is needed — this is the paper's platform
// adaptability claim.
func Deploy(p *hw.Platform, cfg DeployConfig) (*Framework, *DeployReport, error) {
	if cfg.NumNetworks < 10 {
		return nil, nil, fmt.Errorf("core: need at least 10 networks, got %d", cfg.NumNetworks)
	}
	report := &DeployReport{NumNetworks: cfg.NumNetworks}

	t0 := time.Now()
	dsA, dsB := dataset.Generate(p, dataset.DefaultConfig(cfg.NumNetworks, cfg.Seed))
	report.DatasetTime = time.Since(t0)

	fw, err := TrainFramework(p, dsA, dsB, cfg, report)
	if err != nil {
		return nil, nil, err
	}
	return fw, report, nil
}

// TrainFramework trains both prediction models from pre-generated datasets
// (the cmd/datasetgen → cmd/trainer path) and fills the training fields of
// report (which may be zero-valued).
func TrainFramework(p *hw.Platform, dsA *dataset.DatasetA, dsB *dataset.DatasetB, cfg DeployConfig, report *DeployReport) (*Framework, error) {
	fw, err := TrainFrameworkCheckpointed(p, dsA, dsB, cfg, report, nil)
	if err != nil {
		return nil, err
	}
	return fw, nil
}

// ErrDrained is returned (wrapped) by TrainFrameworkCheckpointed when a
// graceful stop interrupted training; the checkpoint directory holds the
// state needed to resume exactly.
var ErrDrained = errors.New("core: training drained on stop request")

// CheckpointOptions threads crash safety through the framework trainer.
type CheckpointOptions struct {
	// Dir receives one state shard per model ("hyper.ckpt", "decision.ckpt").
	Dir *checkpoint.Dir
	// Every is the checkpoint cadence in epochs (default 1).
	Every int
	// Stop, when closed, requests a graceful drain; the call returns an
	// error wrapping ErrDrained.
	Stop <-chan struct{}
}

// TrainFrameworkCheckpointed is TrainFramework with optional crash safety:
// each model trains under nn.TrainResumable against ck.Dir, so a killed or
// drained run resumes bit-identically (the hyper model restores instantly
// once done, then the decision model continues). With a nil ck it is exactly
// TrainFramework.
func TrainFrameworkCheckpointed(p *hw.Platform, dsA *dataset.DatasetA, dsB *dataset.DatasetB, cfg DeployConfig, report *DeployReport, ck *CheckpointOptions) (*Framework, error) {
	if len(dsA.Samples) < 10 || len(dsB.Samples) < 10 {
		return nil, fmt.Errorf("core: datasets too small (%d network, %d block samples)",
			len(dsA.Samples), len(dsB.Samples))
	}
	report.NumBlocks = len(dsB.Samples)
	fw := &Framework{Platform: p, Grid: dsA.Grid}
	fw.Baseline = DatasetBaseline(dsA)

	trainCk := func(name string) *nn.TrainCheckpoint {
		if ck == nil || ck.Dir == nil {
			return nil
		}
		return &nn.TrainCheckpoint{Dir: ck.Dir, Name: name, Every: ck.Every, Stop: ck.Stop}
	}

	// Hyperparameter prediction model (Fig. 3).
	t0 := time.Now()
	trainA, valA, testA := nn.Split(dsA.Samples, cfg.Seed+1)
	trainA = balanceClasses(trainA, len(dsA.Grid))
	fw.HyperScaler = nn.FitFacetScaler(trainA)
	fw.HyperModel = nn.NewTwoStageNet(
		features.StructuralDim, features.StatsDim,
		[]int{48, 32}, []int{48, 24}, len(dsA.Grid), cfg.Seed+2)
	_, st, err := nn.TrainResumable(fw.HyperModel,
		fw.HyperScaler.Apply(trainA), fw.HyperScaler.Apply(valA), cfg.HyperTrain, trainCk("hyper"))
	if err != nil {
		return nil, fmt.Errorf("core: hyper model: %w", err)
	}
	if st.Drained {
		return nil, fmt.Errorf("core: hyper model: %w", ErrDrained)
	}
	report.HyperTrainTime = time.Since(t0)
	report.HyperAccuracy = nn.Accuracy(fw.HyperModel, fw.HyperScaler.Apply(testA))

	// Target frequency decision model (Fig. 4).
	t0 = time.Now()
	trainB, valB, testB := nn.Split(dsB.Samples, cfg.Seed+3)
	trainB = balanceClasses(trainB, dsB.NumLevels)
	fw.DecisionScaler = nn.FitFacetScaler(trainB)
	fw.DecisionModel = nn.NewTwoStageNet(
		features.StructuralDim, features.StatsDim,
		[]int{64, 32}, []int{32}, dsB.NumLevels, cfg.Seed+4)
	_, st, err = nn.TrainResumable(fw.DecisionModel,
		fw.DecisionScaler.Apply(trainB), fw.DecisionScaler.Apply(valB), cfg.DecisionTrain, trainCk("decision"))
	if err != nil {
		return nil, fmt.Errorf("core: decision model: %w", err)
	}
	if st.Drained {
		return nil, fmt.Errorf("core: decision model: %w", ErrDrained)
	}
	report.DecisionTrainTime = time.Since(t0)
	scaledTestB := fw.DecisionScaler.Apply(testB)
	report.DecisionAccuracy = nn.Accuracy(fw.DecisionModel, scaledTestB)
	report.DecisionMeanLevelError = nn.MeanLevelError(fw.DecisionModel, scaledTestB)
	report.DecisionConfusion = nn.ConfusionMatrix(fw.DecisionModel, scaledTestB, dsB.NumLevels)

	return fw, nil
}

// balanceClasses oversamples minority classes (up to 10x) so rare block
// kinds — the strongly memory-bound tails whose optimal levels sit at the
// bottom of the ladder — are not drowned out by the dominant compute-block
// class during decision-model training.
func balanceClasses(samples []nn.Sample, numClasses int) []nn.Sample {
	counts := make([]int, numClasses)
	for _, s := range samples {
		counts[s.Label]++
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	out := append([]nn.Sample(nil), samples...)
	for _, s := range samples {
		reps := maxCount/counts[s.Label] - 1
		if reps > 9 {
			reps = 9
		}
		for r := 0; r < reps; r++ {
			out = append(out, s)
		}
	}
	return out
}

// WorkflowTimings records the per-stage latency of one Analyze call — the
// workflow rows of Table 3.
type WorkflowTimings struct {
	FeatureExtraction time.Duration
	HyperPrediction   time.Duration
	Clustering        time.Duration
	Decision          time.Duration
}

// Analysis is the offline output for one model: its power view and the
// frequency plan preset at the DVFS instrumentation points.
type Analysis struct {
	Hyper   cluster.Hyperparams
	View    *cluster.PowerView
	Plan    *governor.FrequencyPlan
	Levels  []int // per-block target levels, parallel to View.Blocks
	Timings WorkflowTimings
}

// Analyze runs the full per-model workflow of §2.1.1: ① global feature
// extraction, ② hyperparameter prediction, ③ power behavior similarity
// clustering into a power view, ④ per-block global features through the
// decision model, ⑤ the preset frequency plan. With a plan cache attached
// (EnablePlanCache), repeat graphs return the memoized *Analysis — callers
// must treat a cached result as immutable. Analyze is safe for concurrent
// use either way.
func (f *Framework) Analyze(g *graph.Graph) (*Analysis, error) {
	if c := f.planCacheHandle(); c != nil {
		return c.analyze(f, g)
	}
	return f.analyzeUncached(g)
}

// analyzeUncached is the full pipeline; f.mu makes it single-writer (the nn
// forward pass and the clustering scratch both carry per-call state on f).
func (f *Framework) analyzeUncached(g *graph.Graph) (*Analysis, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	a := &Analysis{}

	t0 := time.Now()
	gl := features.ExtractGlobal(g)
	a.Timings.FeatureExtraction = time.Since(t0)

	t0 = time.Now()
	cell := f.HyperModel.Predict(
		f.HyperScaler.ApplyStructural(gl.Structural),
		f.HyperScaler.ApplyStats(gl.Stats))
	a.Hyper = f.Grid[cell]
	a.Timings.HyperPrediction = time.Since(t0)

	t0 = time.Now()
	view, err := cluster.BuildPowerViewScratch(g, a.Hyper, &f.scratch)
	if err != nil {
		return nil, fmt.Errorf("core: clustering %s: %w", g.Name, err)
	}
	a.View = view
	a.Timings.Clustering = time.Since(t0)

	t0 = time.Now()
	ct := sim.NewCostTable(f.Platform, g)
	f.decide(g, a)
	f.guardPlan(ct, g, a)
	a.Timings.Decision = time.Since(t0)

	f.auditAnalysis(ct, g, gl, a)
	return a, nil
}

// guardPlan is a deployment safeguard on top of the paper's workflow: the
// predicted plan's cost is estimated with the analytic roofline/power model
// (the same class of estimate the offline workflow already relies on) and
// compared against the single-block fallback (the whole network at the
// decision model's whole-network level). If a mispredicted clustering or a
// bad per-block decision makes the plan materially worse, the fallback
// ships instead. Ablation variants (AnalyzeWholeNetwork/AnalyzeRandomBlocks)
// deliberately bypass the guard — they exist to measure raw behaviour.
// ct is g's cost table on f.Platform.
func (f *Framework) guardPlan(ct *sim.CostTable, g *graph.Graph, a *Analysis) {
	planE := f.estimatePlanEnergy(ct, a.View, a.Levels)

	fb := &Analysis{View: cluster.WholeNetworkView(g)}
	f.decide(g, fb)
	fbE := f.estimatePlanEnergy(ct, fb.View, fb.Levels)

	if planE > fbE*1.01 {
		a.View, a.Levels, a.Plan = fb.View, fb.Levels, fb.Plan
	}
}

// estimatePlanEnergy returns the analytic per-image energy of running each
// block of view at its assigned level, plus DVFS switch costs at level
// changes.
func (f *Framework) estimatePlanEnergy(ct *sim.CostTable, view *cluster.PowerView, levels []int) float64 {
	p := f.Platform
	total := 0.0
	for i, b := range view.Blocks {
		_, e := ct.SegmentCost(b.StartLayer, b.EndLayer, levels[i])
		total += e
	}
	prev := levels[len(levels)-1]
	for _, lvl := range levels {
		if lvl != prev {
			_, e := p.SwitchCost(p.GPUFreqsHz[prev])
			total += e
		}
		prev = lvl
	}
	return total
}

// decide fills Levels and Plan from the decision model over a.View.
func (f *Framework) decide(g *graph.Graph, a *Analysis) {
	a.Levels = make([]int, a.View.NumBlocks())
	points := make(map[int]int, a.View.NumBlocks())
	for i, b := range a.View.Blocks {
		bg := features.ExtractBlockGlobal(g, b.StartLayer, b.EndLayer)
		lvl := f.DecisionModel.Predict(
			f.DecisionScaler.ApplyStructural(bg.Structural),
			f.DecisionScaler.ApplyStats(bg.Stats))
		a.Levels[i] = f.Platform.ClampGPULevel(lvl)
		points[b.StartLayer] = a.Levels[i]
	}
	a.Plan = &governor.FrequencyPlan{Model: g.Name, Points: points}
}

// AnalyzeWholeNetwork is the P-N ablation: no clustering — the decision
// model sets one frequency for the entire DNN.
func (f *Framework) AnalyzeWholeNetwork(g *graph.Graph) *Analysis {
	a := &Analysis{View: cluster.WholeNetworkView(g)}
	f.decide(g, a)
	return a
}

// AnalyzeRandomBlocks is the P-R ablation: clustering replaced by random
// contiguous partitioning; the decision model still sets block frequencies.
func (f *Framework) AnalyzeRandomBlocks(g *graph.Graph, rng *rand.Rand, maxBlocks int) *Analysis {
	a := &Analysis{View: cluster.RandomPowerView(g, rng, maxBlocks)}
	f.decide(g, a)
	return a
}

// OraclePlan bypasses the decision model: it assigns each block of the
// analysis's view its sweep-optimal level. Used to separate prediction error
// from clustering quality in diagnostics and ablation benches.
func (f *Framework) OraclePlan(g *graph.Graph, a *Analysis) *governor.FrequencyPlan {
	levels, _ := dataset.OracleLevels(f.Platform, g, a.View)
	points := make(map[int]int, len(levels))
	for i, b := range a.View.Blocks {
		points[b.StartLayer] = levels[i]
	}
	return &governor.FrequencyPlan{Model: g.Name, Points: points}
}
