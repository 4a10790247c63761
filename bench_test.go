package powerlens

// Benchmarks regenerating each table and figure of the paper's evaluation
// (DESIGN.md §4), plus ablation benches for the design choices in §5. Each
// experiment bench reports the paper's headline metric via b.ReportMetric so
// `go test -bench=. -benchmem` doubles as a results summary:
//
//	BenchmarkTable1TX2/AGX      — EE gain vs BiM (EEgain_BiM_%)
//	BenchmarkTable2             — P-R / P-N EE deltas
//	BenchmarkTable3Workflow     — per-stage workflow latency
//	BenchmarkFig1               — bursty-flow energy, reactive vs preset
//	BenchmarkFig5TX2/AGX        — task-flow EE per method
//	BenchmarkModelTraining      — offline deployment time + model accuracy
//	BenchmarkSwitchOverhead     — §3.3 microbenchmark
//	BenchmarkAblation*          — distance metric, θ, switch granularity
//	Benchmark<component>        — micro-benchmarks of the pipeline stages

import (
	"math"
	"sync"
	"testing"

	"powerlens/internal/cluster"
	"powerlens/internal/core"
	"powerlens/internal/dataset"
	"powerlens/internal/experiments"
	"powerlens/internal/features"
	"powerlens/internal/governor"
	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/nn"
	"powerlens/internal/obs"
	"powerlens/internal/sim"
	"powerlens/internal/tensor"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

// env deploys a shared small-scale environment for the experiment benches.
func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		cfg := core.DefaultDeployConfig()
		cfg.NumNetworks = 120
		cfg.HyperTrain.Epochs = 40
		cfg.DecisionTrain.Epochs = 40
		benchEnv, benchEnvErr = experiments.NewEnv(cfg)
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

func benchTable1(b *testing.B, p *hw.Platform) {
	e := env(b)
	var bim, fpgg, fpgcg float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(e, p)
		if err != nil {
			b.Fatal(err)
		}
		bim, fpgg, fpgcg = experiments.Averages(rows)
	}
	b.ReportMetric(bim*100, "EEgain_BiM_%")
	b.ReportMetric(fpgg*100, "EEgain_FPG-G_%")
	b.ReportMetric(fpgcg*100, "EEgain_FPG-CG_%")
}

// BenchmarkTable1TX2 regenerates Table 1(a): EE gains on TX2 (paper
// averages: BiM 57.85%, FPG-G 18.39%, FPG-CG 13.53%).
func BenchmarkTable1TX2(b *testing.B) { benchTable1(b, hw.TX2()) }

// BenchmarkTable1AGX regenerates Table 1(b): EE gains on AGX (paper
// averages: BiM 119.42%, FPG-G 27.31%, FPG-CG 15.97%).
func BenchmarkTable1AGX(b *testing.B) { benchTable1(b, hw.AGX()) }

// BenchmarkTable2 regenerates Table 2: the P-R / P-N clustering ablation
// (paper TX2 averages: P-R −42.60%, P-N −15.17%).
func BenchmarkTable2(b *testing.B) {
	e := env(b)
	var pr, pn float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(e, hw.TX2(), 3)
		if err != nil {
			b.Fatal(err)
		}
		pr, pn = experiments.Table2Averages(rows)
	}
	b.ReportMetric(pr*100, "P-R_%")
	b.ReportMetric(pn*100, "P-N_%")
}

// BenchmarkTable3Workflow regenerates Table 3's workflow rows: per-stage
// offline latency of the Analyze pipeline (paper: feature extraction 10 s,
// prediction 320 ms, clustering 60 s, per-block decision 220 ms on TX2).
func BenchmarkTable3Workflow(b *testing.B) {
	e := env(b)
	var d *experiments.Table3Data
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		d, err = experiments.Table3(e, hw.TX2())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.FeatureExtraction.Seconds()*1e3, "feat_ms")
	b.ReportMetric(d.HyperPrediction.Seconds()*1e3, "hyper_ms")
	b.ReportMetric(d.Clustering.Seconds()*1e3, "cluster_ms")
	b.ReportMetric(d.DecisionPerBlock.Seconds()*1e3, "decide_ms")
}

// BenchmarkFig1 regenerates Figure 1: the bursty two-task flow comparing a
// reactive governor's ping-pong/lag against PowerLens's preset points.
func BenchmarkFig1(b *testing.B) {
	e := env(b)
	var traces []experiments.Fig1Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		traces, err = experiments.Fig1(e, hw.TX2())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, tr := range traces {
		b.ReportMetric(tr.EnergyJ, tr.Method+"_J")
	}
}

func benchFig5(b *testing.B, p *hw.Platform) {
	e := env(b)
	var results []experiments.Fig5Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		results, err = experiments.Fig5(e, p, 10, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		b.ReportMetric(r.EE, r.Method+"_EE")
	}
}

// BenchmarkFig5TX2 regenerates Figure 5 on TX2 (paper: PowerLens EE gains of
// 36.24%, 28.49%, 94.48% vs FPG-G, FPG-CG, BiM).
func BenchmarkFig5TX2(b *testing.B) { benchFig5(b, hw.TX2()) }

// BenchmarkFig5AGX regenerates Figure 5 on AGX (paper: 40.75%, 22.62%,
// 102.60%).
func BenchmarkFig5AGX(b *testing.B) { benchFig5(b, hw.AGX()) }

// BenchmarkModelTraining measures the offline deployment workflow (dataset
// generation + training both models; paper Table 3: 20h/6h on TX2) and
// reports the Fig. 3/4 test accuracies (paper: 92.6% / 94.2%).
func BenchmarkModelTraining(b *testing.B) {
	var report *core.DeployReport
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultDeployConfig()
		cfg.NumNetworks = 60
		cfg.HyperTrain.Epochs = 30
		cfg.DecisionTrain.Epochs = 30
		var err error
		_, report, err = core.Deploy(hw.TX2(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(report.HyperAccuracy*100, "hyperAcc_%")
	b.ReportMetric(report.DecisionAccuracy*100, "decisionAcc_%")
}

// BenchmarkSwitchOverhead is the §3.3 microbenchmark: 100 DVFS level
// changes (paper: 50 ms).
func BenchmarkSwitchOverhead(b *testing.B) {
	p := hw.TX2()
	var total float64
	for i := 0; i < b.N; i++ {
		total = experiments.SwitchOverhead(p, 100).Seconds() * 1e3
	}
	b.ReportMetric(total, "total_ms")
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationDistance compares Mahalanobis against plain Euclidean
// distance in the clustering stage (design choice 1): same pipeline, the
// covariance whitening replaced by the identity metric.
func BenchmarkAblationDistance(b *testing.B) {
	g := models.MustBuild("resnet152")
	x, _ := features.ScaledDepthwise(g)
	alpha, lambda := cluster.DefaultDistanceParams()

	b.Run("mahalanobis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster.BlendedDistance(x, alpha, lambda)
		}
	})
	b.Run("euclidean", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MahalanobisAll(x, tensor.Identity(x.Cols))
		}
	})
}

// BenchmarkAblationPerfWeight sweeps the θ exponent of the per-block
// objective E·t^θ (design choice: pure-EE targets vs performance-weighted
// targets), reporting the EE and latency of the resulting whole-network
// plan for ResNet-152 on TX2.
func BenchmarkAblationPerfWeight(b *testing.B) {
	p := hw.TX2()
	g := models.MustBuild("resnet152")
	n := len(g.Layers) - 1
	for _, theta := range []float64{0, 0.4, 1.0} {
		b.Run(map[float64]string{0: "theta0", 0.4: "theta0.4", 1.0: "theta1"}[theta], func(b *testing.B) {
			var ee, slowdown float64
			for i := 0; i < b.N; i++ {
				// Inline θ-sweep (sim.PerfWeight is the framework default;
				// the ablation recomputes scores explicitly).
				ct := sim.NewCostTable(p, g)
				best := 0
				bestScore := math.Inf(1)
				for lvl := range p.GPUFreqsHz {
					t, e := ct.SegmentCost(0, n, lvl)
					score := e * math.Pow(t.Seconds(), theta)
					if score < bestScore {
						best, bestScore = lvl, score
					}
				}
				tOpt, eOpt := ct.SegmentCost(0, n, best)
				tMax, _ := ct.SegmentCost(0, n, p.NumGPULevels()-1)
				ee = 1 / eOpt
				slowdown = tOpt.Seconds() / tMax.Seconds()
			}
			b.ReportMetric(ee, "EE_img/J")
			b.ReportMetric(slowdown, "slowdown_x")
		})
	}
}

// BenchmarkSwitchGranularity compares per-block against per-layer DVFS
// switching (design choice 6: block-granular instrumentation amortizes the
// switch stall; per-layer switching drowns in it).
func BenchmarkSwitchGranularity(b *testing.B) {
	p := hw.TX2()
	g := models.MustBuild("resnet34")
	e := env(b)
	a, err := e.Frameworks[p.Name].Analyze(g)
	if err != nil {
		b.Fatal(err)
	}

	// Per-layer plan: every layer is its own instrumentation point,
	// alternating two adjacent levels to force a switch at each layer.
	perLayer := &governor.FrequencyPlan{Model: g.Name, Points: map[int]int{}}
	for i := range g.Layers {
		perLayer.Points[i] = 5 + i%2
	}

	b.Run("per-block", func(b *testing.B) {
		var ee float64
		for i := 0; i < b.N; i++ {
			ee = sim.NewExecutor(p, governor.NewPowerLens(a.Plan)).RunTask(g, 5).EE()
		}
		b.ReportMetric(ee, "EE_img/J")
	})
	b.Run("per-layer", func(b *testing.B) {
		var ee float64
		for i := 0; i < b.N; i++ {
			ee = sim.NewExecutor(p, governor.NewPowerLens(perLayer)).RunTask(g, 5).EE()
		}
		b.ReportMetric(ee, "EE_img/J")
	})
}

// --- Pipeline micro-benchmarks ---

// BenchmarkFeatureExtraction measures the depthwise + global extractors.
func BenchmarkFeatureExtraction(b *testing.B) {
	g := models.MustBuild("densenet201")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.ScaledDepthwise(g)
		features.ExtractGlobal(g)
	}
}

// BenchmarkClustering measures Algorithm 1 end-to-end on ResNet-152.
func BenchmarkClustering(b *testing.B) {
	g := models.MustBuild("resnet152")
	alpha, lambda := cluster.DefaultDistanceParams()
	hp := cluster.Hyperparams{Eps: 0.3, MinPts: 4, Alpha: alpha, Lambda: lambda}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.BuildPowerView(g, hp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutor measures simulated inference throughput (layers/op
// accounting dominates).
func BenchmarkExecutor(b *testing.B) {
	p := hw.TX2()
	g := models.MustBuild("resnet152")
	ctl := governor.NewStatic(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.NewExecutor(p, ctl).RunTask(g, 1)
	}
}

// BenchmarkOracleSweep measures one full-block frequency sweep.
func BenchmarkOracleSweep(b *testing.B) {
	p := hw.TX2()
	g := models.MustBuild("resnet152")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.NewCostTable(p, g).OptimalSegmentLevel(0, len(g.Layers)-1)
	}
}

// BenchmarkNNTrainingEpoch measures one decision-model training epoch on a
// synthetic block dataset.
func BenchmarkNNTrainingEpoch(b *testing.B) {
	p := hw.TX2()
	dsA, dsB := dataset.Generate(p, dataset.DefaultConfig(20, 5))
	_ = dsA
	net := nn.NewTwoStageNet(features.StructuralDim, features.StatsDim,
		[]int{64, 32}, []int{32}, dsB.NumLevels, 1)
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = 1
	cfg.Patience = 0
	train, val, _ := nn.Split(dsB.Samples, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.Train(net, train, val, cfg)
	}
}

// BenchmarkModelBuilders measures graph construction of every evaluation
// network.
func BenchmarkModelBuilders(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range models.Names() {
			models.MustBuild(name)
		}
	}
}

// BenchmarkZTT characterizes the extra zTT-style learning-based baseline
// (related work [6]) against PowerLens on a sustained task.
func BenchmarkZTT(b *testing.B) {
	p := hw.TX2()
	g := models.MustBuild("resnet152")
	var ee float64
	for i := 0; i < b.N; i++ {
		ee = sim.NewExecutor(p, governor.NewZTT(3)).RunTask(g, 30).EE()
	}
	b.ReportMetric(ee, "EE_img/J")
}

// BenchmarkBatchSweep measures the §5 batching extension's sweep and
// reports the chosen operating point's EE.
func BenchmarkBatchSweep(b *testing.B) {
	p := hw.TX2()
	g := models.MustBuild("vgg19")
	var best sim.BatchPoint
	for i := 0; i < b.N; i++ {
		best, _ = sim.OptimalBatch(p, g, 32, 0)
	}
	b.ReportMetric(best.EE, "EE_img/J")
	b.ReportMetric(float64(best.Batch), "batch")
}

// BenchmarkThermalStudy measures the opt-in thermal study (sustained
// throttling comparison).
func BenchmarkThermalStudy(b *testing.B) {
	e := env(b)
	var rows []experiments.ThermalRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ThermalStudy(e, hw.TX2(), 300)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.PeakTempC, r.Method+"_peakC")
	}
}

// BenchmarkExtensions measures the §5 extension comparison (CPU DVFS and
// batching over the 12 models).
func BenchmarkExtensions(b *testing.B) {
	e := env(b)
	var rows []experiments.ExtensionRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Extensions(e, hw.TX2())
		if err != nil {
			b.Fatal(err)
		}
	}
	var cg float64
	for _, r := range rows {
		cg += r.CGEE/r.BaseEE - 1
	}
	b.ReportMetric(cg/float64(len(rows))*100, "CGgain_%")
}

// --- Observability benches (DESIGN.md §9) ---

// BenchmarkObsCounter measures the metrics registry's hot path: the
// zero-label fast path is a single atomic CAS loop; the labelled path adds
// one map lookup under RLock.
func BenchmarkObsCounter(b *testing.B) {
	r := obs.NewRegistry()
	b.Run("no-labels", func(b *testing.B) {
		c := r.Counter("bench_plain_total", "bench")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("labelled", func(b *testing.B) {
		c := r.Counter("bench_labelled_total", "bench", "controller")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc("PowerLens")
		}
	})
}

// BenchmarkObsHistogram measures a labelled histogram observation (bucket
// scan + series lookup).
func BenchmarkObsHistogram(b *testing.B) {
	r := obs.NewRegistry()
	h := r.Histogram("bench_watts", "bench", []float64{1, 2, 4, 8, 16}, "controller")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%20), "PowerLens")
	}
}

// BenchmarkObsSpan measures one trace span emission (lock + append).
func BenchmarkObsSpan(b *testing.B) {
	o := obs.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Span("block", "bench", 0, 1, nil)
	}
}

// BenchmarkExecutorObserved measures the executor with the full
// observability layer attached, against BenchmarkExecutor's bare runs: the
// sub-bench delta is the per-task instrumentation cost (metrics, block and
// actuation spans, decision instants).
func BenchmarkExecutorObserved(b *testing.B) {
	p := hw.TX2()
	g := models.MustBuild("resnet152")
	ctl := governor.NewStatic(8)
	b.Run("bare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.NewExecutor(p, ctl).RunTask(g, 1)
		}
	})
	b.Run("observed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := sim.NewExecutor(p, ctl)
			e.Obs = obs.New()
			e.RunTask(g, 1)
		}
	})
}

// BenchmarkAblationFusion compares PowerLens's end-to-end EE on eager vs
// operator-fused graphs (TensorRT-style conv+BN+activation folding): fusion
// removes the elementwise DRAM round-trips, raising arithmetic intensity
// and shrinking the gains available to frequency scaling of memory phases.
func BenchmarkAblationFusion(b *testing.B) {
	p := hw.TX2()
	eager := models.MustBuild("resnet152")
	fused := eager.FuseElementwise()
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"eager", eager}, {"fused", fused}} {
		b.Run(tc.name, func(b *testing.B) {
			var ee float64
			for i := 0; i < b.N; i++ {
				lvl, es := sim.NewCostTable(p, tc.g).OptimalSegmentLevel(0, len(tc.g.Layers)-1)
				ee = 1 / es[lvl]
			}
			b.ReportMetric(ee, "EE_img/J")
		})
	}
}
