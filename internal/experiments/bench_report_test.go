package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// smokeReport runs the harness once per test binary; every subtest reads it.
var smokeReportCache *BenchReport

func smokeReport(t *testing.T) *BenchReport {
	t.Helper()
	if smokeReportCache == nil {
		r, err := RunBench(BenchOptions{Name: "test", Seed: 7, Smoke: true})
		if err != nil {
			t.Fatal(err)
		}
		smokeReportCache = r
	}
	return smokeReportCache
}

// TestRunBenchSmoke is the harness acceptance check: a smoke run validates,
// covers every hot path, and accepts a comparison against itself.
func TestRunBenchSmoke(t *testing.T) {
	r := smokeReport(t)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if !r.Smoke || r.Seed != 7 || r.Name != "test" {
		t.Fatalf("report header wrong: %+v", r)
	}
	// name -> group; orientation is pinned separately below.
	want := []struct{ name, group string }{
		{"executor_layer_steps_per_sec", "sim"},
		{"clustering_views_per_sec", "cluster"},
		{"feature_extracts_per_sec", "features"},
		{"registry_counter_ops_per_sec", "obs"},
		{"tracer_span_ops_per_sec", "obs"},
		{"metrics_scrapes_per_sec", "obs"},
		{"sketch_insert_ns", "obs"},
		{"sketch_merge_ns", "obs"},
		{"ledger_record_allocs", "obs"},
		{"dataset_gen_nets_per_s", "offline"},
		{"oracle_sweep_ns_per_block", "offline"},
		{"oracle_sweep_allocs_per_block", "offline"},
		{"cluster_sweep_allocs_per_cell", "offline"},
		{"train_epoch_ns", "offline"},
		{"analyze_ns_uncached", "online"},
		{"analyze_ns_cached", "online"},
		{"executor_step_allocs", "online"},
		{"dispatch_jobs_per_s_micro", "online"},
		{"dispatch_jobs_per_s", "online"},
	}
	if len(r.Metrics) != len(want) {
		t.Fatalf("got %d metrics, want %d: %+v", len(r.Metrics), len(want), r.Metrics)
	}
	for i, w := range want {
		m := r.Metrics[i]
		if m.Name != w.name || m.Group != w.group {
			t.Fatalf("metric %d is %q/%q, want %q/%q", i, m.Name, m.Group, w.name, w.group)
		}
		wantHigher := m.Unit == "steps/s" || m.Unit == "views/s" || m.Unit == "extracts/s" ||
			m.Unit == "ops/s" || m.Unit == "scrapes/s" || m.Unit == "nets/s" || m.Unit == "jobs/s"
		if m.HigherIsBetter != wantHigher {
			t.Fatalf("metric %q orientation %v disagrees with unit %q", m.Name, m.HigherIsBetter, m.Unit)
		}
		// The two alloc counters are the only metrics whose healthy value IS
		// zero — the fast paths' whole claim.
		zeroOK := m.Name == "executor_step_allocs" || m.Name == "ledger_record_allocs"
		if m.Value < 0 || (m.Value == 0 && !zeroOK) ||
			m.Tolerance <= 0 || m.Unit == "" {
			t.Fatalf("metric %q not measured sanely: %+v", w.name, m)
		}
	}

	// A report must accept itself: zero deltas, zero regressions.
	ds, regressed := CompareBench(r, r, 1)
	if regressed {
		t.Fatalf("self-compare regressed: %+v", ds)
	}
	for _, d := range ds {
		if d.Pct != 0 || d.Regressed || d.Missing || d.Added {
			t.Fatalf("self-compare delta not clean: %+v", d)
		}
	}
}

// TestRunBenchFilter pins the -filter contract: a filtered run measures only
// the matching section, so BENCH_offline.json stays cheap to regenerate.
func TestRunBenchFilter(t *testing.T) {
	r, err := RunBench(BenchOptions{Name: "offline", Seed: 7, Smoke: true, Filter: "offline"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics) != 5 {
		t.Fatalf("offline filter produced %d metrics, want 5: %+v", len(r.Metrics), r.Metrics)
	}
	for _, m := range r.Metrics {
		if m.Group != "offline" {
			t.Fatalf("filtered run leaked metric %q from group %q", m.Name, m.Group)
		}
	}
}

// TestRunBenchFilterNoMatch pins the zero-match contract: a filter that
// selects no section must error and name the valid sections, instead of
// silently writing an empty report a CI gate would then wave through.
func TestRunBenchFilterNoMatch(t *testing.T) {
	_, err := RunBench(BenchOptions{Name: "x", Seed: 7, Smoke: true, Filter: "nosuchsection"})
	if err == nil {
		t.Fatal("zero-match filter must error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "nosuchsection") || !strings.Contains(msg, "matches no section") {
		t.Fatalf("error must name the filter and the failure: %q", msg)
	}
	for _, section := range []string{"sim", "cluster", "features", "obs", "offline", "online"} {
		if !strings.Contains(msg, section) {
			t.Fatalf("error must list section %q: %q", section, msg)
		}
	}
}

// TestRunBenchOnlineSection pins the online fast-path section in isolation:
// the serving metrics BENCH_online.json gates on.
func TestRunBenchOnlineSection(t *testing.T) {
	r, err := RunBench(BenchOptions{Name: "online", Seed: 7, Smoke: true, Filter: "online"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	byName := map[string]BenchMetric{}
	for _, m := range r.Metrics {
		if m.Group != "online" {
			t.Fatalf("online filter leaked metric %q from group %q", m.Name, m.Group)
		}
		byName[m.Name] = m
	}
	if len(byName) != 5 {
		t.Fatalf("online section produced %d metrics, want 5: %+v", len(byName), r.Metrics)
	}
	uncached, cached := byName["analyze_ns_uncached"], byName["analyze_ns_cached"]
	if uncached.Value <= 0 || cached.Value <= 0 {
		t.Fatalf("analysis latencies not measured: %+v / %+v", uncached, cached)
	}
	// The tentpole claim, measured end to end: a plan-cache hit is >= 20x
	// cheaper than the full analysis pipeline.
	if cached.Value*20 > uncached.Value {
		t.Fatalf("cached analyze %v ns not >= 20x faster than uncached %v ns", cached.Value, uncached.Value)
	}
	if allocs := byName["executor_step_allocs"]; allocs.Value != 0 {
		t.Fatalf("steady-state executor stepping allocates: %v allocs/step", allocs.Value)
	}
	tput, micro := byName["dispatch_jobs_per_s"], byName["dispatch_jobs_per_s_micro"]
	if tput.Value <= 0 || !tput.HigherIsBetter || micro.Value <= 0 || !micro.HigherIsBetter {
		t.Fatalf("dispatch throughput not measured sanely: %+v / %+v", tput, micro)
	}
	// The macro-stepped fleet path must beat its micro-stepped oracle — the
	// whole point of the warm summary cache (typically by >10x; >1x keeps the
	// bound robust to CI noise).
	if tput.Value <= micro.Value {
		t.Fatalf("macro dispatch %v jobs/s not faster than micro %v jobs/s", tput.Value, micro.Value)
	}
}

func TestBenchReportRoundTrip(t *testing.T) {
	r := smokeReport(t)
	var buf bytes.Buffer
	if err := WriteBenchReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBenchReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != r.Name || back.Seed != r.Seed || len(back.Metrics) != len(r.Metrics) {
		t.Fatalf("round-trip changed the report: %+v vs %+v", back, r)
	}
	for i := range r.Metrics {
		if back.Metrics[i] != r.Metrics[i] {
			t.Fatalf("metric %d changed: %+v vs %+v", i, back.Metrics[i], r.Metrics[i])
		}
	}
}

func TestBenchReportValidate(t *testing.T) {
	good := func() *BenchReport {
		return &BenchReport{
			Schema: BenchSchemaVersion, Name: "x",
			Metrics: []BenchMetric{{Name: "a", Value: 1, Unit: "ops/s", Tolerance: 0.1}},
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*BenchReport){
		"future schema": func(r *BenchReport) { r.Schema = BenchSchemaVersion + 1 },
		"zero schema":   func(r *BenchReport) { r.Schema = 0 },
		"no name":       func(r *BenchReport) { r.Name = "" },
		"no metrics":    func(r *BenchReport) { r.Metrics = nil },
		"unnamed":       func(r *BenchReport) { r.Metrics[0].Name = "" },
		"no unit":       func(r *BenchReport) { r.Metrics[0].Unit = "" },
		"duplicate":     func(r *BenchReport) { r.Metrics = append(r.Metrics, r.Metrics[0]) },
		"NaN value":     func(r *BenchReport) { r.Metrics[0].Value = math.NaN() },
		"Inf value":     func(r *BenchReport) { r.Metrics[0].Value = math.Inf(1) },
		"negative":      func(r *BenchReport) { r.Metrics[0].Value = -1 },
		"bad tolerance": func(r *BenchReport) { r.Metrics[0].Tolerance = -0.1 },
	}
	for name, mutate := range cases {
		r := good()
		mutate(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, r)
		}
	}
}

func TestCompareBench(t *testing.T) {
	base := &BenchReport{
		Schema: 1, Name: "old",
		Metrics: []BenchMetric{
			{Name: "fast", Value: 100, Unit: "ops/s", HigherIsBetter: true, Tolerance: 0.10},
			{Name: "slow", Value: 10, Unit: "ms", HigherIsBetter: false, Tolerance: 0.10},
			{Name: "gone", Value: 5, Unit: "ops/s", HigherIsBetter: true, Tolerance: 0.10},
		},
	}
	cur := &BenchReport{
		Schema: 1, Name: "new",
		Metrics: []BenchMetric{
			{Name: "fast", Value: 80, Unit: "ops/s", HigherIsBetter: true, Tolerance: 0.10},
			{Name: "slow", Value: 10.5, Unit: "ms", HigherIsBetter: false, Tolerance: 0.10},
			{Name: "fresh", Value: 1, Unit: "ops/s", HigherIsBetter: true, Tolerance: 0.10},
		},
	}
	ds, regressed := CompareBench(base, cur, 1)
	if !regressed {
		t.Fatal("20% throughput drop against 10% tolerance must regress")
	}
	by := map[string]BenchDelta{}
	for _, d := range ds {
		by[d.Name] = d
	}
	if d := by["fast"]; !d.Regressed || d.Pct != -20 {
		t.Fatalf("fast: %+v", d)
	}
	// Lower-is-better: 10 -> 10.5 is a 5% worsening, within 10% tolerance,
	// and the sign convention keeps negative == worse.
	if d := by["slow"]; d.Regressed || math.Abs(d.Pct - -5) > 1e-9 {
		t.Fatalf("slow: %+v", d)
	}
	if d := by["gone"]; !d.Missing || !d.Regressed {
		t.Fatalf("missing metric must regress: %+v", d)
	}
	if d := by["fresh"]; !d.Added || d.Regressed {
		t.Fatalf("new metric must be benign: %+v", d)
	}

	// Slack widens every tolerance: 3x turns the 20% drop into a pass, but a
	// missing metric can never be slacked away.
	ds, regressed = CompareBench(base, cur, 3)
	by = map[string]BenchDelta{}
	for _, d := range ds {
		by[d.Name] = d
	}
	if by["fast"].Regressed {
		t.Fatalf("slack 3 should absorb a 20%% drop: %+v", by["fast"])
	}
	if !by["gone"].Regressed || !regressed {
		t.Fatal("slack must not forgive a missing metric")
	}

	// Zero-old-value improvements report +100% and never regress.
	zero := &BenchReport{Schema: 1, Name: "z",
		Metrics: []BenchMetric{{Name: "m", Value: 0, Unit: "u", HigherIsBetter: true, Tolerance: 0.1}}}
	some := &BenchReport{Schema: 1, Name: "z",
		Metrics: []BenchMetric{{Name: "m", Value: 4, Unit: "u", HigherIsBetter: true, Tolerance: 0.1}}}
	if ds, reg := CompareBench(zero, some, 1); reg || ds[0].Pct != 100 {
		t.Fatalf("zero-base delta: %+v", ds)
	}
}

// TestCompareBenchZeroBaseline pins the absolute-movement semantics for
// metrics whose committed baseline is exactly zero: relative deltas are
// undefined there, so any movement in the worse direction regresses
// unconditionally (no tolerance or slack applies), movement in the better
// direction passes, and the displayed Pct collapses to a ±100 sentinel.
func TestCompareBenchZeroBaseline(t *testing.T) {
	cases := []struct {
		name           string
		higherIsBetter bool
		old, new       float64
		wantPct        float64
		wantRegressed  bool
	}{
		{"higher-is-better improves", true, 0, 4, 100, false},
		{"higher-is-better goes negative", true, 0, -0.5, -100, true},
		{"lower-is-better worsens", false, 0, 0.01, -100, true},
		{"lower-is-better improves", false, 0, -2, 100, false},
		{"stays zero", true, 0, 0, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			metric := func(v float64) []BenchMetric {
				return []BenchMetric{{
					Name: "m", Value: v, Unit: "u",
					HigherIsBetter: tc.higherIsBetter, Tolerance: 0.5,
				}}
			}
			old := &BenchReport{Schema: 1, Name: "old", Metrics: metric(tc.old)}
			cur := &BenchReport{Schema: 1, Name: "new", Metrics: metric(tc.new)}
			// Slack 1000 would forgive any relative delta; off a zero
			// baseline it must be irrelevant in both directions.
			ds, regressed := CompareBench(old, cur, 1000)
			if len(ds) != 1 {
				t.Fatalf("deltas = %+v", ds)
			}
			d := ds[0]
			if d.Pct != tc.wantPct || d.Regressed != tc.wantRegressed || regressed != tc.wantRegressed {
				t.Fatalf("got Pct=%v Regressed=%v (report %v), want Pct=%v Regressed=%v",
					d.Pct, d.Regressed, regressed, tc.wantPct, tc.wantRegressed)
			}
		})
	}
}

// TestCompareBenchRatio pins the ratio verdict: a higher-is-better metric
// regresses when new < old/(1+tol·slack), so the CI gates' tol 0.5 × slack 4
// still catches a throughput dropping to (near) zero, while lower-is-better
// verdicts are those of the plain relative delta.
func TestCompareBenchRatio(t *testing.T) {
	cases := []struct {
		name           string
		higherIsBetter bool
		old, new       float64
		wantRegressed  bool
	}{
		{"throughput dropped to ~zero", true, 13282, 0.001, true},
		{"throughput dropped by 3.3x", true, 13282, 4000, true},
		{"throughput dropped by 2.95x", true, 13282, 4500, false},
		{"throughput improved", true, 13282, 26000, false},
		{"time grew by 3.1x", false, 10, 31, true},
		{"time grew by 2.9x", false, 10, 29, false},
		{"time shrank", false, 10, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			metric := func(v float64) []BenchMetric {
				return []BenchMetric{{
					Name: "m", Value: v, Unit: "u",
					HigherIsBetter: tc.higherIsBetter, Tolerance: 0.5,
				}}
			}
			old := &BenchReport{Schema: 1, Name: "old", Metrics: metric(tc.old)}
			cur := &BenchReport{Schema: 1, Name: "new", Metrics: metric(tc.new)}
			ds, regressed := CompareBench(old, cur, 4)
			if ds[0].Regressed != tc.wantRegressed || regressed != tc.wantRegressed {
				t.Fatalf("%v -> %v: %+v, want regressed=%v", tc.old, tc.new, ds[0], tc.wantRegressed)
			}
		})
	}
}

func TestBenchOptionsDefaults(t *testing.T) {
	d := BenchOptions{}.withDefaults()
	if d.Name != "local" || d.Seed != 1 || d.Repeats != 3 || d.Smoke {
		t.Fatalf("defaults = %+v", d)
	}
	if s := (BenchOptions{Smoke: true}).withDefaults(); s.Repeats != 1 {
		t.Fatalf("smoke repeats = %d, want 1", s.Repeats)
	}
	keep := BenchOptions{Name: "ci", Seed: 9, Repeats: 5, Smoke: true}.withDefaults()
	if keep != (BenchOptions{Name: "ci", Seed: 9, Repeats: 5, Smoke: true}) {
		t.Fatalf("explicit options changed: %+v", keep)
	}
}

// TestObserveOptionsDefaults pins the sibling scenario's defaulting, including
// that an injected observer survives defaulting untouched.
func TestObserveOptionsDefaults(t *testing.T) {
	d := ObserveOptions{}.withDefaults()
	if d.Tasks != 20 || d.Nodes != 3 || d.Jobs != 20 || d.Seed != 1 {
		t.Fatalf("defaults = %+v", d)
	}
	if d.Obs != nil {
		t.Fatal("defaulting invented an observer")
	}
	neg := ObserveOptions{Tasks: -1, Nodes: -1, Jobs: -1}.withDefaults()
	if neg.Tasks != 20 || neg.Nodes != 3 || neg.Jobs != 20 {
		t.Fatalf("negative sizes not clamped: %+v", neg)
	}
	keep := ObserveOptions{Tasks: 2, Nodes: 1, Jobs: 4, Seed: -3}.withDefaults()
	if keep.Tasks != 2 || keep.Nodes != 1 || keep.Jobs != 4 || keep.Seed != -3 {
		t.Fatalf("explicit options changed: %+v", keep)
	}
}

func TestRenderBench(t *testing.T) {
	r := smokeReport(t)
	out := RenderBenchReport(r)
	for _, frag := range []string{"bench \"test\"", "metric", "executor_layer_steps_per_sec", "scrapes/s"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("RenderBenchReport missing %q:\n%s", frag, out)
		}
	}
	ds, _ := CompareBench(r, r, 1)
	ds = append(ds,
		BenchDelta{Name: "lost", Old: 1, Missing: true, Regressed: true},
		BenchDelta{Name: "worse", Old: 10, New: 5, Pct: -50, Tolerance: 10, Regressed: true},
		BenchDelta{Name: "fresh", New: 2, Added: true},
	)
	out = RenderBenchDeltas(ds)
	for _, frag := range []string{"REGRESSED (metric missing)", "REGRESSED", "new metric", "verdict", "ok"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("RenderBenchDeltas missing %q:\n%s", frag, out)
		}
	}
}
