package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"powerlens/internal/cluster"
	"powerlens/internal/dataset"
	"powerlens/internal/features"
	"powerlens/internal/governor"
	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/nn"
	"powerlens/internal/obs"
	"powerlens/internal/obs/ledger"
	"powerlens/internal/obs/sketch"
	"powerlens/internal/sim"
)

// The bench harness is the repo's machine-checkable performance baseline:
// `cmd/experiments bench` measures the hot paths (simulated-executor layer
// stepping, power-view clustering, feature extraction, metrics/span emission
// and the scrape path) and emits a schema-versioned BENCH_<name>.json;
// `bench compare` diffs two such files with per-metric tolerance thresholds
// and exits nonzero on regression, so CI and developers can pin the perf
// trajectory between commits the same way golden files pin output formats.

// BenchSchemaVersion is bumped whenever the bench-report layout changes
// incompatibly; Compare and Validate reject reports from a future schema.
const BenchSchemaVersion = 1

// BenchMetric is one measured quantity.
type BenchMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Group names the harness section the metric belongs to ("sim",
	// "cluster", "features", "obs", "offline", "online");
	// BenchOptions.Filter selects sections by substring.
	Group string `json:"group,omitempty"`
	// HigherIsBetter orients regression detection (throughputs: true).
	HigherIsBetter bool `json:"higherIsBetter"`
	// Tolerance is the worsening factor allowed before Compare flags a
	// regression (0.25 = 25% slower: a time may grow ×1.25, a throughput
	// shrink ÷1.25). Wall-clock throughputs need generous
	// tolerances: CI machines are noisy neighbors.
	Tolerance float64 `json:"tolerance"`
}

// BenchReport is the emitted BENCH_<name>.json document.
type BenchReport struct {
	Schema    int           `json:"schema"`
	Name      string        `json:"name"`
	Seed      int64         `json:"seed"`
	Smoke     bool          `json:"smoke,omitempty"`
	GoVersion string        `json:"goVersion"`
	HostOS    string        `json:"hostOs"`
	HostArch  string        `json:"hostArch"`
	Metrics   []BenchMetric `json:"metrics"`
}

// Validate checks the invariants Compare and CI rely on.
func (r *BenchReport) Validate() error {
	if r.Schema <= 0 || r.Schema > BenchSchemaVersion {
		return fmt.Errorf("bench: report %q has schema %d, this build reads <= %d",
			r.Name, r.Schema, BenchSchemaVersion)
	}
	if r.Name == "" {
		return errors.New("bench: report has no name")
	}
	if len(r.Metrics) == 0 {
		return fmt.Errorf("bench: report %q has no metrics", r.Name)
	}
	seen := map[string]bool{}
	for i, m := range r.Metrics {
		if m.Name == "" || m.Unit == "" {
			return fmt.Errorf("bench: metric %d of %q lacks name or unit", i, r.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("bench: metric %q duplicated in %q", m.Name, r.Name)
		}
		seen[m.Name] = true
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
			return fmt.Errorf("bench: metric %q has bad value %v", m.Name, m.Value)
		}
		if m.Tolerance < 0 || math.IsNaN(m.Tolerance) {
			return fmt.Errorf("bench: metric %q has bad tolerance %v", m.Name, m.Tolerance)
		}
	}
	return nil
}

// WriteBenchReport encodes the report as indented JSON.
func WriteBenchReport(w io.Writer, r *BenchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadBenchReport decodes and validates a report.
func ReadBenchReport(rd io.Reader) (*BenchReport, error) {
	var r BenchReport
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("bench: decode report: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// LoadBenchReport reads a report from disk.
func LoadBenchReport(path string) (*BenchReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	defer f.Close()
	return ReadBenchReport(f)
}

// BenchOptions sizes the harness; zero fields take defaults.
type BenchOptions struct {
	Name string // report name (default "local")
	Seed int64  // seeds the simulated workloads (default 1)
	// Smoke shrinks every workload to CI-smoke size: same metrics, seconds
	// not minutes, numbers only meaningful against other smoke runs.
	Smoke bool
	// Repeats is the number of timed repetitions per measurement; the
	// fastest is kept, standard wall-clock-bench practice (default 3, 1 for
	// smoke).
	Repeats int
	// Filter, when non-empty, runs only the sections whose group name
	// contains it (e.g. "offline" measures just the offline pipeline).
	Filter string
}

func (o BenchOptions) withDefaults() BenchOptions {
	if o.Name == "" {
		o.Name = "local"
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Repeats <= 0 {
		o.Repeats = 3
		if o.Smoke {
			o.Repeats = 1
		}
	}
	return o
}

// timeBest runs fn repeats times and returns the fastest wall time, floored
// at 1µs so rates never divide by zero.
func timeBest(repeats int, fn func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	if best < time.Microsecond {
		best = time.Microsecond
	}
	return best
}

// RunBench measures the hot paths and assembles the report. Everything is
// seeded and deployment-free (no Env needed), so `experiments bench` starts
// measuring immediately.
func RunBench(opt BenchOptions) (*BenchReport, error) {
	opt = opt.withDefaults()
	r := &BenchReport{
		Schema:    BenchSchemaVersion,
		Name:      opt.Name,
		Seed:      opt.Seed,
		Smoke:     opt.Smoke,
		GoVersion: runtime.Version(),
		HostOS:    runtime.GOOS,
		HostArch:  runtime.GOARCH,
	}
	add := func(group, name string, value float64, unit string, tol float64, higherIsBetter bool) {
		r.Metrics = append(r.Metrics, BenchMetric{
			Name: name, Value: value, Unit: unit, Group: group,
			HigherIsBetter: higherIsBetter, Tolerance: tol,
		})
	}
	matched := false
	match := func(group string) bool {
		ok := opt.Filter == "" || strings.Contains(group, opt.Filter)
		if ok {
			matched = true
		}
		return ok
	}

	model := "resnet152"
	if opt.Smoke {
		model = "resnet18"
	}
	g := models.MustBuild(model)
	p := hw.TX2()

	if match("sim") {
		// Executor stepping: simulated layers advanced per second of host
		// time, over a seeded random task flow (the runtime hot path).
		images, flowTasks := 8, 6
		if opt.Smoke {
			images, flowTasks = 2, 2
		}
		rng := rand.New(rand.NewSource(opt.Seed))
		names := models.Names()
		tasks := make([]sim.Task, flowTasks)
		layers := 0
		for i := range tasks {
			tg := models.MustBuild(names[rng.Intn(len(names))])
			tasks[i] = sim.Task{Graph: tg, Images: images}
			layers += len(tg.Layers) * images
		}
		d := timeBest(opt.Repeats, func() {
			e := sim.NewExecutor(p, governor.NewOndemand())
			e.RunTaskFlow(tasks, TaskGap)
		})
		add("sim", "executor_layer_steps_per_sec", float64(layers)/d.Seconds(), "steps/s", 0.40, true)
	}

	if match("cluster") {
		// Clustering: Algorithm-1 power views built per second.
		alpha, lambda := cluster.DefaultDistanceParams()
		hp := cluster.Hyperparams{Eps: 0.3, MinPts: 4, Alpha: alpha, Lambda: lambda}
		clusterIters := 4
		if opt.Smoke {
			clusterIters = 1
		}
		d := timeBest(opt.Repeats, func() {
			for i := 0; i < clusterIters; i++ {
				if _, err := cluster.BuildPowerView(g, hp); err != nil {
					panic(err) // deterministic input; cannot fail once it ever passed
				}
			}
		})
		add("cluster", "clustering_views_per_sec", float64(clusterIters)/d.Seconds(), "views/s", 0.40, true)
	}

	if match("features") {
		// Feature extraction: depthwise + global extractor passes per second.
		featIters := 20
		if opt.Smoke {
			featIters = 4
		}
		d := timeBest(opt.Repeats, func() {
			for i := 0; i < featIters; i++ {
				features.ScaledDepthwise(g)
				features.ExtractGlobal(g)
			}
		})
		add("features", "feature_extracts_per_sec", float64(featIters)/d.Seconds(), "extracts/s", 0.40, true)
	}

	if match("obs") {
		// Registry overhead: labelled counter increments per second — the
		// cost every instrumented window/switch/image pays.
		incs := 2_000_000
		if opt.Smoke {
			incs = 200_000
		}
		reg := obs.NewRegistry()
		ctr := reg.Counter("bench_ops_total", "bench", "controller")
		d := timeBest(opt.Repeats, func() {
			for i := 0; i < incs; i++ {
				ctr.Inc("PowerLens")
			}
		})
		add("obs", "registry_counter_ops_per_sec", float64(incs)/d.Seconds(), "ops/s", 0.50, true)

		// Span overhead: trace emissions per second (lock + args copy + append).
		spans := 500_000
		if opt.Smoke {
			spans = 50_000
		}
		d = timeBest(opt.Repeats, func() {
			tr := obs.NewTracer()
			for i := 0; i < spans; i++ {
				tr.Complete("block", "bench", 1, time.Duration(i), 1, nil)
			}
		})
		add("obs", "tracer_span_ops_per_sec", float64(spans)/d.Seconds(), "ops/s", 0.50, true)

		// Scrape path: pooled SnapshotInto + Prometheus render per second
		// over a populated registry — what /metrics does per scrape.
		popReg := obs.NewRegistry()
		for i := 0; i < 12; i++ {
			c := popReg.Counter(fmt.Sprintf("bench_family_%02d_total", i), "bench", "controller")
			for _, v := range []string{"PowerLens", "BiM", "Ondemand"} {
				c.Add(float64(i), v)
			}
		}
		hist := popReg.Histogram("bench_power_watts", "bench", []float64{1, 2, 4, 8, 16}, "controller")
		for i := 0; i < 64; i++ {
			hist.Observe(float64(i%20), "PowerLens")
		}
		scrapes := 5_000
		if opt.Smoke {
			scrapes = 500
		}
		var buf []obs.FamilySnapshot
		d = timeBest(opt.Repeats, func() {
			for i := 0; i < scrapes; i++ {
				buf = popReg.SnapshotInto(buf)
				if err := obs.WriteSnapshotPrometheus(io.Discard, buf); err != nil {
					panic(err)
				}
			}
		})
		add("obs", "metrics_scrapes_per_sec", float64(scrapes)/d.Seconds(), "scrapes/s", 0.50, true)

		// Sketch hot paths: Observe is on every recorded pass (ledger + SLO
		// tracker), Merge is on every cross-shard ledger/registry merge.
		skInserts := 2_000_000
		if opt.Smoke {
			skInserts = 200_000
		}
		d = timeBest(opt.Repeats, func() {
			sk := sketch.New()
			for i := 0; i < skInserts; i++ {
				sk.Observe(float64(i%977)/100 + 1e-3)
			}
		})
		add("obs", "sketch_insert_ns", d.Seconds()*1e9/float64(skInserts), "ns/op", 0.50, false)

		merges := 50_000
		if opt.Smoke {
			merges = 5_000
		}
		src := sketch.New()
		for i := 0; i < 4096; i++ {
			src.Observe(float64(i%257)/10 + 1e-3)
		}
		dst := sketch.New()
		d = timeBest(opt.Repeats, func() {
			for i := 0; i < merges; i++ {
				dst.Merge(src)
			}
		})
		add("obs", "sketch_merge_ns", d.Seconds()*1e9/float64(merges), "ns/op", 0.50, false)

		// Ledger record path: steady-state allocations per attribution event.
		// Like executor_step_allocs, the healthy value is exactly zero — once
		// the (model, block, level) cells exist, recording only touches them.
		l := ledger.New()
		records := 500_000
		if opt.Smoke {
			records = 50_000
		}
		record := func(n int) {
			for i := 0; i < n; i++ {
				k := ledger.Key{Model: 42, Block: int32(i % 4), Level: int32(i % 8)}
				l.RecordSegment(k, "bench", time.Microsecond, 1e-6)
				if i%16 == 0 {
					l.RecordPass(42, "bench", time.Millisecond, 1e-3, i%32 == 0)
				}
			}
		}
		record(1024) // warm: create every cell, the model entry, sketch buckets
		runtime.GC()
		var ms1, ms2 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		record(records)
		runtime.ReadMemStats(&ms2)
		add("obs", "ledger_record_allocs",
			float64(ms2.Mallocs-ms1.Mallocs)/float64(records), "allocs/op", 0.50, false)
	}

	if match("offline") {
		offlineBench(opt, r, g, add)
	}

	if match("online") {
		onlineBench(opt, add)
	}

	// A filter that selects nothing would silently emit an empty (and
	// invalid) report; name the sections instead so typos fail loudly.
	if !matched {
		return nil, fmt.Errorf("bench: filter %q matches no section (sections: %s)",
			opt.Filter, strings.Join(benchSections, ", "))
	}

	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// benchSections lists every harness section a BenchOptions.Filter can match.
var benchSections = []string{"sim", "cluster", "features", "obs", "offline", "online"}

// offlineBench measures the §2.2 offline pipeline: dataset generation
// throughput end to end (multi-core), the oracle sweep's per-block cost over
// the production segment-cost-cache path, the grid clustering sweep's
// allocation behaviour, and prediction-model training. These are the loops
// the cost table, cluster scratch and data-parallel trainer optimize;
// BENCH_offline.json pins them against regression.
func offlineBench(opt BenchOptions, r *BenchReport, g *graph.Graph, add func(group, name string, value float64, unit string, tol float64, higherIsBetter bool)) {
	p := hw.TX2()

	// End-to-end generation: random DNNs through grid sweep, oracle labeling
	// and sample assembly, all cores.
	nets := 16
	if opt.Smoke {
		nets = 4
	}
	dcfg := dataset.DefaultConfig(nets, opt.Seed)
	d := timeBest(opt.Repeats, func() {
		dataset.Generate(p, dcfg)
	})
	add("offline", "dataset_gen_nets_per_s", float64(nets)/d.Seconds(), "nets/s", 0.50, true)

	// Oracle sweep: the per-block full-ladder sweep exactly as the generator
	// runs it — one cost table per network, every grid cell's power view
	// swept block by block (repeated blocks across cells hit the memo).
	grid := dataset.DefaultGrid()
	views := make([]*cluster.PowerView, 0, len(grid))
	blocks := 0
	for _, hp := range grid {
		pv, err := cluster.BuildPowerView(g, hp)
		if err != nil {
			panic(err) // deterministic input; cannot fail once it ever passed
		}
		views = append(views, pv)
		blocks += pv.NumBlocks()
	}
	sweep := func() {
		ct := sim.NewCostTable(p, g)
		for _, pv := range views {
			for _, b := range pv.Blocks {
				ct.OptimalSegmentLevel(b.StartLayer, b.EndLayer)
			}
		}
	}
	d = timeBest(opt.Repeats, sweep)
	add("offline", "oracle_sweep_ns_per_block", float64(d.Nanoseconds())/float64(blocks), "ns/block", 0.50, false)

	var ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	sweep()
	runtime.ReadMemStats(&ms2)
	add("offline", "oracle_sweep_allocs_per_block",
		float64(ms2.Mallocs-ms1.Mallocs)/float64(blocks), "allocs/block", 0.50, false)

	// Grid clustering sweep allocations: DBSCAN + post-processing over a
	// shared distance matrix with reused scratch, as the generator runs it.
	alpha, lambda := cluster.DefaultDistanceParams()
	x, _ := features.ScaledDepthwise(g)
	dist := cluster.BlendedDistance(x, alpha, lambda)
	runtime.ReadMemStats(&ms1)
	var sc cluster.Scratch
	for _, hp := range grid {
		cluster.ClusterPrecomputedScratch(dist, hp, &sc)
	}
	runtime.ReadMemStats(&ms2)
	add("offline", "cluster_sweep_allocs_per_cell",
		float64(ms2.Mallocs-ms1.Mallocs)/float64(len(grid)), "allocs/cell", 0.50, false)

	// Trainer: data-parallel minibatch epochs over a decision-model-shaped
	// network and synthetic samples (results are worker-count invariant).
	trainN, epochs := 768, 4
	if opt.Smoke {
		trainN, epochs = 192, 2
	}
	samples := synthTrainSamples(trainN, 12, 6, p.NumGPULevels(), opt.Seed)
	tcfg := nn.TrainConfig{Epochs: epochs, BatchSize: 32, LR: 1e-3, Seed: opt.Seed}
	d = timeBest(opt.Repeats, func() {
		net := nn.NewTwoStageNet(12, 6, []int{64, 48}, []int{32}, p.NumGPULevels(), opt.Seed)
		nn.Train(net, samples, samples[:64], tcfg)
	})
	add("offline", "train_epoch_ns", float64(d.Nanoseconds())/float64(epochs), "ns/epoch", 0.50, false)
}

// synthTrainSamples builds seeded synthetic two-facet samples for the
// trainer benchmark.
func synthTrainSamples(n, structDim, statsDim, classes int, seed int64) []nn.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]nn.Sample, n)
	for i := range out {
		s := nn.Sample{
			Structural: make([]float64, structDim),
			Stats:      make([]float64, statsDim),
			Label:      rng.Intn(classes),
		}
		for j := range s.Structural {
			s.Structural[j] = rng.NormFloat64()
		}
		for j := range s.Stats {
			s.Stats[j] = rng.NormFloat64() + float64(s.Label)
		}
		out[i] = s
	}
	return out
}

// BenchDelta is one metric's comparison outcome.
type BenchDelta struct {
	Name     string
	Old, New float64
	// Pct is the relative change in percent, signed so negative always
	// means "worse" regardless of metric orientation.
	Pct float64
	// Tolerance is the allowed worsening in percent, slack applied: a
	// lower-is-better metric may grow by tol·slack, a higher-is-better one
	// may shrink by the same factor, (1 - 1/(1+tol·slack)).
	Tolerance float64
	Regressed bool
	Missing   bool // present in old, absent in new
	Added     bool // absent in old, present in new
}

// CompareBench diffs two reports metric by metric. slack scales every
// tolerance (1 = as recorded; 2 = twice as lenient — useful across machine
// generations). Worsening is judged as a ratio: a metric regresses when it
// moves the wrong way by more than a factor 1+tol·slack, so a throughput
// that drops to zero always regresses, whatever the slack. A metric that is in old but missing from new counts as a
// regression (silent metric loss is exactly what schema pinning is for);
// new metrics are reported but benign. The second result is true when any
// regression was found.
func CompareBench(old, cur *BenchReport, slack float64) ([]BenchDelta, bool) {
	if slack <= 0 {
		slack = 1
	}
	curBy := map[string]BenchMetric{}
	for _, m := range cur.Metrics {
		curBy[m.Name] = m
	}
	oldSeen := map[string]bool{}

	var out []BenchDelta
	regressed := false
	for _, om := range old.Metrics {
		oldSeen[om.Name] = true
		tol := om.Tolerance * slack
		d := BenchDelta{Name: om.Name, Old: om.Value, Tolerance: tol * 100}
		if om.HigherIsBetter {
			d.Tolerance = (1 - 1/(1+tol)) * 100
		}
		nm, ok := curBy[om.Name]
		if !ok {
			d.Missing, d.Regressed, regressed = true, true, true
			out = append(out, d)
			continue
		}
		d.New = nm.Value
		switch {
		case om.Value == nm.Value:
			d.Pct = 0
		case om.Value == 0:
			// Zero baseline: no relative scale exists, so the verdict rides on
			// the absolute movement. ±100 is a display sentinel (negative
			// means worse, matching the signed convention below), and any
			// worse-direction movement off zero regresses regardless of
			// tolerance or slack — a percentage of a zero base excuses
			// nothing.
			d.Pct = 100
			if (nm.Value < 0) == om.HigherIsBetter {
				d.Pct = -100
				d.Regressed, regressed = true, true
			}
			out = append(out, d)
			continue
		default:
			d.Pct = (nm.Value - om.Value) / om.Value * 100
		}
		if !om.HigherIsBetter {
			d.Pct = -d.Pct
		}
		if d.Pct < -d.Tolerance {
			d.Regressed, regressed = true, true
		}
		out = append(out, d)
	}
	for _, nm := range cur.Metrics {
		if !oldSeen[nm.Name] {
			out = append(out, BenchDelta{Name: nm.Name, New: nm.Value, Added: true})
		}
	}
	return out, regressed
}

// RenderBenchReport formats a report as a terminal table.
func RenderBenchReport(r *BenchReport) string {
	s := fmt.Sprintf("bench %q (seed %d, smoke %v, %s %s/%s):\n",
		r.Name, r.Seed, r.Smoke, r.GoVersion, r.HostOS, r.HostArch)
	s += fmt.Sprintf("  %-32s %16s %-12s %9s\n", "metric", "value", "unit", "tolerance")
	for _, m := range r.Metrics {
		s += fmt.Sprintf("  %-32s %16.1f %-12s %8.0f%%\n", m.Name, m.Value, m.Unit, m.Tolerance*100)
	}
	return s
}

// RenderBenchDeltas formats a comparison as a terminal table.
func RenderBenchDeltas(ds []BenchDelta) string {
	s := fmt.Sprintf("  %-32s %14s %14s %9s %10s  %s\n", "metric", "old", "new", "change", "tolerance", "verdict")
	for _, d := range ds {
		verdict := "ok"
		switch {
		case d.Missing:
			verdict = "REGRESSED (metric missing)"
		case d.Regressed:
			verdict = "REGRESSED"
		case d.Added:
			verdict = "new metric"
		}
		s += fmt.Sprintf("  %-32s %14.1f %14.1f %+8.1f%% %9.0f%%  %s\n",
			d.Name, d.Old, d.New, d.Pct, d.Tolerance, verdict)
	}
	return s
}
