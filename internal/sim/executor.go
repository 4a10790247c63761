// Package sim executes DNN operator graphs on a simulated hw.Platform under
// a pluggable DVFS controller, integrating time and energy exactly. It is
// the substrate all experiments run on: the reactive baselines observe
// windowed utilization samples (the "historical information" the paper
// criticizes), while PowerLens applies preset per-block frequencies at its
// instrumentation points.
package sim

import (
	"fmt"
	"time"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/obs"
	"powerlens/internal/obs/audit"
	"powerlens/internal/obs/ledger"
	"powerlens/internal/obs/slo"
)

// WindowStats summarizes one governor sampling window — the hardware state /
// historical information a reactive DVFS method sees.
type WindowStats struct {
	Period       time.Duration
	GPUBusy      float64 // fraction of the window the GPU executed kernels
	CPUBusy      float64 // fraction of the window the host CPU was busy
	AvgComputeUt float64 // mean ALU-bound fraction while the GPU was busy
	AvgPowerW    float64 // mean rail power over the window
	GPULevel     int
	CPULevel     int
}

// Controller is a DVFS policy. The executor consults GPULevel/CPULevel after
// every hook and pays a switch cost whenever the GPU level changes.
//
// Reactive governors act in OnWindow; PowerLens acts in BeforeLayer (its
// preset instrumentation points); Reset is called at the start of each run.
type Controller interface {
	Name() string
	Reset(p *hw.Platform)
	GPULevel() int
	CPULevel() int
	BeforeLayer(g *graph.Graph, layerID int)
	OnWindow(s WindowStats)
}

// Result aggregates a simulated run.
type Result struct {
	Controller string
	Platform   string
	Images     int
	Time       time.Duration
	EnergyJ    float64
	Switches   int
	Samples    []hw.PowerSample

	// Thermal results (zero unless Executor.Thermal was set).
	PeakTempC     float64
	ThrottledTime time.Duration

	// Faults counts injected faults and recovery actions (all zero unless
	// Executor.Faults was set).
	Faults hw.FaultStats

	// Passes counts completed inference passes (batched: one pass covers
	// Batch images); QoSViolations counts passes whose GPU busy time exceeded
	// the max-frequency reference by more than the QoS budget. Both are
	// tracked on every run — they never feed back into the simulation.
	Passes        int
	QoSViolations int

	// LevelEnergyJ / LevelTime decompose the run's energy and wall time by
	// the GPU DVFS level active while they accrued, indexed by ladder level.
	// Populated only when attribution is on (Executor.TrackLevels, Ledger or
	// SLO set); nil otherwise.
	LevelEnergyJ []float64
	LevelTime    []time.Duration
}

// AvgPowerW returns the run's mean power P̄.
func (r Result) AvgPowerW() float64 {
	if r.Time <= 0 {
		return 0
	}
	return r.EnergyJ / r.Time.Seconds()
}

// EE returns the paper's energy-efficiency metric (eq. 1): images per joule.
func (r Result) EE() float64 {
	if r.EnergyJ <= 0 {
		return 0
	}
	return float64(r.Images) / r.EnergyJ
}

// FPS returns inference throughput in images per second.
func (r Result) FPS() float64 {
	if r.Time <= 0 {
		return 0
	}
	return float64(r.Images) / r.Time.Seconds()
}

// QoSViolationRate returns the fraction of passes that violated the QoS
// budget.
func (r Result) QoSViolationRate() float64 {
	if r.Passes <= 0 {
		return 0
	}
	return float64(r.QoSViolations) / float64(r.Passes)
}

// Headline returns the run's headline metrics as a flat name→value map, the
// snapshot a run manifest (obs/runlog) records so a stored result can be
// compared across runs without replaying the simulation.
func (r Result) Headline() map[string]float64 {
	h := map[string]float64{
		"images":             float64(r.Images),
		"time_s":             r.Time.Seconds(),
		"energy_j":           r.EnergyJ,
		"ee_img_per_j":       r.EE(),
		"avg_power_w":        r.AvgPowerW(),
		"dvfs_switches":      float64(r.Switches),
		"faults_total":       float64(r.Faults.Total()),
		"throttled_ms":       float64(r.ThrottledTime.Milliseconds()),
		"passes":             float64(r.Passes),
		"qos_violations":     float64(r.QoSViolations),
		"qos_violation_rate": r.QoSViolationRate(),
	}
	// Per-level energy shares, only for levels that actually burned energy,
	// so plain runs don't bloat manifests with zeros.
	if r.EnergyJ > 0 {
		for lvl, ej := range r.LevelEnergyJ {
			if ej > 0 {
				h[fmt.Sprintf("energy_share_l%02d", lvl)] = ej / r.EnergyJ
			}
		}
	}
	return h
}

// Task is one inference job: a model processing a number of images.
type Task struct {
	Graph  *graph.Graph
	Images int
}

// Executor drives tasks through a platform under a controller.
type Executor struct {
	Platform *hw.Platform
	Ctl      Controller

	// WindowPeriod is the reactive-governor sampling period (default 50 ms,
	// a typical devfreq polling interval).
	WindowPeriod time.Duration
	// SensorPeriod is the tegrastats-style trace sampling period (default
	// 10 ms). A non-positive period turns the trace off — Result.Samples is
	// empty, energy integration stays exact, and the serving fast path
	// applies: the executor reuses its sensor and per-run scratch so
	// steady-state stepping performs no heap allocation.
	SensorPeriod time.Duration
	// Batch is the inference batch size (default 1). Batching multiplies
	// arithmetic and activation traffic per pass while weight traffic
	// amortizes — the §5 batching extension.
	Batch int
	// Thermal, when non-nil, enables the opt-in thermal model: junction
	// temperature is integrated alongside energy and a throttle latch caps
	// the applied GPU level while hot (MAXN-style throttling).
	Thermal *hw.ThermalModel
	// Faults, when non-nil, injects sensor and DVFS actuation faults drawn
	// from its seeded stream. The executor then runs its resilience
	// machinery: bounded-backoff retry of stuck transitions and a watchdog
	// that re-asserts a frequency the hardware never reached. Nil (the
	// default) keeps the exact fault-free code path.
	Faults *hw.Injector
	// MaxActuationRetries bounds the immediate retries of a stuck
	// transition before the executor gives up and leaves re-assertion to
	// the watchdog (default 2).
	MaxActuationRetries int
	// RetryBackoff is the initial idle backoff between actuation retries;
	// it doubles per retry, capped at 8× (default 1 ms).
	RetryBackoff time.Duration
	// Obs, when non-nil, streams metrics and decision/actuation/block spans
	// into the observability layer (see observe.go). Nil — the default —
	// keeps the exact uninstrumented code path; observation never feeds back
	// into the simulation, so results are identical either way.
	Obs *obs.Observer
	// Ledger, when non-nil, receives energy/latency attribution: every
	// executed layer is attributed to its (model digest, power block, DVFS
	// level) cell, staged per task and applied when the task ends, and each
	// inference pass is recorded as it completes. Like Obs, it never feeds
	// back into the simulation (see attrib.go).
	Ledger *ledger.Ledger
	// SLO, when non-nil, receives per-pass SLO events (latency degradation
	// vs the max-frequency reference, energy, violations) on the simulated
	// clock.
	SLO *slo.Tracker
	// Audit, when non-nil, is wired into the controller at reset (when the
	// controller implements AuditSink) so plan applications and guard
	// interventions land in the decision-audit trail on the simulated clock.
	// Records flow under track AuditTrack. Nil keeps the exact unaudited
	// code path (see audit.go).
	Audit *audit.Recorder
	// AuditTrack keys this executor's records in the shared recorder; cloud
	// runs give each node its own track.
	AuditTrack int
	// QoSBudget is the allowed per-pass GPU-time degradation before a pass
	// counts as a QoS violation (default DefaultQoSBudget).
	QoSBudget float64
	// TrackLevels opts into the per-level energy/time decomposition
	// (Result.LevelEnergyJ / LevelTime) without attaching a ledger or SLO
	// sink.
	TrackLevels bool
	// Summaries, when non-nil, enables macro-stepping (macro.go): passes of
	// a MacroSteppable controller are fast-forwarded from cached
	// FlowSummaries, bit-identical to micro-stepping them. The cache may be
	// shared across executors (cluster nodes); fills are single-flight.
	// Incompatible sinks (faults, obs, audit, thermal, the sample trace)
	// demote the run to micro-stepping automatically.
	Summaries *SummaryCache

	thermal *hw.ThermalState

	sensor *hw.PowerSensor

	// cost holds the per-level op costs of the current (graph, batch); it is
	// reset, reusing its storage, only when either changes. costRef is its
	// whole-graph time at the top level: the max-frequency GPU reference
	// time of one pass (the QoS baseline).
	cost    CostTable
	costRef time.Duration

	// staged holds the current task's ledger cell deltas, keyed (block,
	// level); runImages flushes them into Ledger when the task ends.
	staged []cellDelta

	// Attribution state (see attrib.go). passes/qosViolations are tracked on
	// every run; the level slices only when attrib is set.
	attrib        bool
	blocks        BlockResolver
	levelEnergy   []float64
	levelTime     []time.Duration
	passes        int
	qosViolations int

	// Window accumulation state.
	winElapsed time.Duration
	winGPUBusy time.Duration
	winCPUBusy time.Duration
	winCompute float64 // compute-utilization × busy-seconds
	winEnergy  float64

	gpuLevel int
	switches int
	images   int

	// Resilience state (only used when Faults != nil).
	wantLevel  int           // last level the controller asked for (post clamps)
	switching  bool          // re-entrancy guard for the faulted switch path
	faultStats hw.FaultStats // counters surfaced in Result.Faults
	lastStats  WindowStats   // last delivered window (stale data on dropout)
	haveStats  bool

	// Observability state (only used when Obs != nil).
	mx       execMetrics
	ctlName  string
	segStart time.Duration // start of the current frequency-residency block
	segLevel int           // level of the current residency block

	// Macro-stepping state (see macro.go).
	macroCtl    MacroSteppable // e.Ctl when it implements MacroSteppable
	windowInert bool           // window segmentation skipped this run
	macroOK     bool           // fast-forward eligible this run
	rec         *macroRecorder // non-nil while recording a representative pass
}

// NewExecutor returns an executor with default periods.
func NewExecutor(p *hw.Platform, ctl Controller) *Executor {
	return &Executor{
		Platform:     p,
		Ctl:          ctl,
		WindowPeriod: 50 * time.Millisecond,
		SensorPeriod: 10 * time.Millisecond,
	}
}

// reset prepares run state. With tracing on, each run gets a fresh sensor so
// previously returned Result.Samples slices stay valid; with tracing off no
// samples escape, so the sensor is reset in place (zero-alloc path).
func (e *Executor) reset() {
	if e.sensor != nil && e.SensorPeriod <= 0 {
		e.sensor.Reset(e.SensorPeriod)
	} else {
		e.sensor = hw.NewPowerSensor(e.SensorPeriod)
	}
	e.Ctl.Reset(e.Platform)
	// Wire the audit sink before the first GPULevel consultation below: a
	// guard may already strike on it, and that intervention must be recorded.
	e.auditReset()
	e.gpuLevel = e.Platform.ClampGPULevel(e.Ctl.GPULevel())
	e.switches = 0
	e.images = 0
	e.winElapsed, e.winGPUBusy, e.winCPUBusy = 0, 0, 0
	e.winCompute, e.winEnergy = 0, 0
	e.thermal = nil
	if e.Thermal != nil {
		e.thermal = hw.NewThermalState(e.Thermal)
	}
	e.wantLevel = e.gpuLevel
	e.switching = false
	e.faultStats = hw.FaultStats{}
	e.lastStats = WindowStats{}
	e.haveStats = false
	e.attribReset()
	e.obsReset()
	e.macroReset()
}

// advance accounts an interval with given power, busy flags, and compute
// utilization, ticking governor windows as they fill. In window-inert mode
// (macro.go) the window bookkeeping is skipped entirely: nothing consumes it
// — OnWindow no-ops, ticks never change the applied level — and skipping it
// makes the advance sequence of a pass independent of its window offset.
func (e *Executor) advance(d time.Duration, powerW float64, gpuBusy, cpuBusy bool, computeUt float64) {
	if e.rec != nil {
		e.rec.note(d, powerW, computeUt, e.gpuLevel, gpuBusy, cpuBusy)
	}
	if e.windowInert {
		e.sensor.Advance(d, powerW, e.Platform.GPUFreqsHz[e.gpuLevel])
		if e.attrib {
			e.levelEnergy[e.gpuLevel] += powerW * d.Seconds()
			e.levelTime[e.gpuLevel] += d
		}
		return
	}
	for d > 0 {
		room := e.WindowPeriod - e.winElapsed
		step := d
		if step > room {
			step = room
		}
		sec := step.Seconds()
		f := e.Platform.GPUFreqsHz[e.gpuLevel]
		e.sensor.Advance(step, powerW, f)
		if e.thermal != nil {
			e.thermal.Advance(step, powerW)
		}
		e.winElapsed += step
		if gpuBusy {
			e.winGPUBusy += step
			e.winCompute += computeUt * sec
		}
		if cpuBusy {
			e.winCPUBusy += step
		}
		e.winEnergy += powerW * sec
		if e.attrib {
			e.levelEnergy[e.gpuLevel] += powerW * sec
			e.levelTime[e.gpuLevel] += step
		}
		d -= step
		if e.winElapsed >= e.WindowPeriod {
			e.tickWindow()
		}
	}
}

// tickWindow delivers a completed window to the controller and applies any
// requested frequency change.
func (e *Executor) tickWindow() {
	if e.rec != nil {
		// A window boundary split the pass being recorded: its advance
		// sequence depends on the window offset, so it cannot be a summary.
		e.abortRecording()
	}
	period := e.winElapsed
	stats := WindowStats{
		Period:   period,
		GPULevel: e.gpuLevel,
		CPULevel: e.Ctl.CPULevel(),
	}
	if s := period.Seconds(); s > 0 {
		stats.GPUBusy = e.winGPUBusy.Seconds() / s
		stats.CPUBusy = e.winCPUBusy.Seconds() / s
		stats.AvgPowerW = e.winEnergy / s
	}
	if b := e.winGPUBusy.Seconds(); b > 0 {
		stats.AvgComputeUt = e.winCompute / b
	}
	e.winElapsed, e.winGPUBusy, e.winCPUBusy = 0, 0, 0
	e.winCompute, e.winEnergy = 0, 0

	if e.Faults != nil {
		stats = e.observeWindow(stats)
	}
	e.Ctl.OnWindow(stats)
	e.applyLevel()
	if e.Obs != nil {
		e.noteWindow(stats)
	}
}

// observeWindow passes ground-truth window stats through the fault
// injector's sensor model: a dropped window delivers the previous reading
// (tegrastats-style stale data), a noisy one perturbs the observed power and
// busy fractions. Energy accounting stays exact — only what the governor
// *sees* is corrupted.
func (e *Executor) observeWindow(stats WindowStats) WindowStats {
	r := e.Faults.SensorWindow()
	switch {
	case r.Dropped:
		e.faultStats.SensorDropouts++
		if e.Obs != nil {
			e.noteFault("sensor-dropout", nil)
		}
		if e.haveStats {
			return e.lastStats
		}
		// Nothing delivered yet: the governor sees an empty first window.
		stats = WindowStats{Period: stats.Period, GPULevel: stats.GPULevel, CPULevel: stats.CPULevel}
	case r.Noisy:
		e.faultStats.SensorNoisy++
		stats.AvgPowerW *= r.PowerScale
		stats.GPUBusy = clamp01(stats.GPUBusy * r.BusyScale)
		stats.CPUBusy = clamp01(stats.CPUBusy * r.BusyScale)
		stats.AvgComputeUt = clamp01(stats.AvgComputeUt * r.BusyScale)
		if e.Obs != nil {
			e.noteFault("sensor-noise", map[string]any{
				"power_scale": r.PowerScale, "busy_scale": r.BusyScale})
		}
	}
	e.lastStats = stats
	e.haveStats = true
	return stats
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// applyLevel pays the switch cost if the controller's desired level differs
// from the currently applied one. With the thermal model enabled, the
// throttle latch caps the applied level regardless of the controller.
func (e *Executor) applyLevel() {
	want := e.Platform.ClampGPULevel(e.Ctl.GPULevel())
	if e.thermal != nil {
		want = e.thermal.CapLevel(want)
	}
	if e.Faults != nil {
		e.applyLevelFaulty(want)
		return
	}
	if want == e.gpuLevel {
		return
	}
	// During the transition the pipeline stalls at roughly idle power of the
	// departing frequency.
	from := e.gpuLevel
	start := e.sensor.Now()
	d, energy := e.Platform.SwitchCost(e.Platform.GPUFreqsHz[e.gpuLevel])
	power := energy / d.Seconds()
	e.gpuLevel = want
	e.switches++
	e.advance(d, power, false, false, 0)
	if e.Obs != nil {
		e.noteSwitch(from, want, start, 1, 0, 0)
	}
}

// applyLevelFaulty actuates a level change through the fault injector. A
// stuck transition is retried immediately with bounded exponential backoff;
// if the hardware still refuses, the mismatch persists and the watchdog —
// the want==wantLevel check below — detects and re-asserts it the next time
// the controller state is applied (every window tick and instrumentation
// point). Clamped transitions are accepted as-is for this attempt: a
// thermal/nvpmodel clamp will not yield to an immediate retry.
func (e *Executor) applyLevelFaulty(want int) {
	if e.switching {
		// A window tick fired during a transition's own stall interval;
		// the outer call finishes the actuation.
		return
	}
	if want == e.gpuLevel {
		e.wantLevel = want
		return
	}
	if want == e.wantLevel {
		// The controller already asked for this level and the hardware
		// never got there: a stuck frequency caught by the watchdog.
		e.faultStats.WatchdogReasserts++
		if e.Obs != nil {
			e.mx.reasserts.Inc(e.ctlName)
			e.noteFault("watchdog-reassert", map[string]any{"want": want, "at": e.gpuLevel})
		}
	}
	e.wantLevel = want
	e.switching = true
	from := e.gpuLevel
	start := e.sensor.Now()
	attempts, stuckN, clampedN := 0, 0, 0
	defer func() {
		e.switching = false
		if e.Obs != nil {
			e.noteSwitch(from, want, start, attempts, stuckN, clampedN)
		}
	}()

	maxRetries := e.MaxActuationRetries
	if maxRetries <= 0 {
		maxRetries = 2
	}
	backoff := e.RetryBackoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	maxBackoff := 8 * backoff
	for attempt := 0; ; attempt++ {
		tr := e.Faults.Transition(e.gpuLevel, want)
		d, energy := e.Platform.SwitchCost(e.Platform.GPUFreqsHz[e.gpuLevel])
		if tr.ExtraLatency > 0 {
			d += tr.ExtraLatency
			e.faultStats.DelayedTransitions++
		}
		power := energy / d.Seconds()
		e.gpuLevel = e.Platform.ClampGPULevel(tr.Applied)
		e.switches++
		attempts++
		if tr.Stuck {
			e.faultStats.StuckTransitions++
			stuckN++
		}
		if tr.Clamped {
			e.faultStats.ClampedTransitions++
			clampedN++
		}
		if e.Obs != nil && (tr.Stuck || tr.Clamped || tr.ExtraLatency > 0) {
			name := "dvfs-delayed"
			if tr.Stuck {
				name = "dvfs-stuck"
			} else if tr.Clamped {
				name = "dvfs-clamped"
			}
			e.noteFault(name, map[string]any{"want": want, "applied": e.gpuLevel})
		}
		e.advance(d, power, false, false, 0)
		if e.gpuLevel == want || tr.Clamped || attempt >= maxRetries {
			return
		}
		// Stuck: back off briefly (GPU idles at the unchanged frequency),
		// then retry.
		e.faultStats.ActuationRetries++
		if e.Obs != nil {
			e.mx.retries.Inc(e.ctlName)
		}
		idleW := e.Platform.GPUIdlePower(e.Platform.GPUFreqsHz[e.gpuLevel])
		e.advance(backoff, idleW, false, false, 0)
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// runImage simulates one inference pass (Batch images). Host pre-processing
// of the next pass is pipelined with the GPU pass (the standard
// double-buffered inference loop), so the CPU rail burns energy concurrently
// and only extends wall time when the host becomes the bottleneck. This is
// what lets FPG-C+G save energy by down-scaling an underutilized CPU.
func (e *Executor) runImage(g *graph.Graph) {
	p := e.Platform
	batch := e.Batch
	if batch < 1 {
		batch = 1
	}

	cpuLevel := clampCPU(p, e.Ctl.CPULevel())
	fcpu := p.CPUFreqsHz[cpuLevel]
	cpuT, cpuE := p.CPUImageCost(fcpu)
	cpuT *= time.Duration(batch)
	cpuE *= float64(batch)
	cpuPower := 0.0
	if cpuT > 0 {
		cpuPower = cpuE / cpuT.Seconds()
	}
	cpuRemaining := cpuT

	// GPU pass, layer by layer, with the host rail active for the first
	// cpuRemaining of it.
	ct := e.costTable(g, batch)
	passStart := e.sensor.Now()
	passEnergy := e.sensor.EnergyJ()
	var gpuBusy time.Duration
	var row []opCost
	rowLevel := -1
	for i, l := range g.Layers {
		e.Ctl.BeforeLayer(g, l.ID)
		e.applyLevel()
		if l.Kind == graph.OpInput {
			continue
		}
		if e.gpuLevel != rowLevel {
			row, rowLevel = ct.row(e.gpuLevel), e.gpuLevel
		}
		c := &row[i]
		gpuBusy += c.Time
		if e.Ledger != nil || e.rec != nil {
			e.noteCell(g, l.ID, c)
		}
		overlap := c.Time
		if overlap > cpuRemaining {
			overlap = cpuRemaining
		}
		if overlap > 0 {
			e.advance(overlap, c.PowerW+cpuPower, true, true, c.ComputeUt)
			cpuRemaining -= overlap
		}
		if rest := c.Time - overlap; rest > 0 {
			e.advance(rest, c.PowerW, true, false, c.ComputeUt)
		}
	}
	// Host-bound tail: the GPU waits for pre-processing to finish.
	if cpuRemaining > 0 {
		gpuIdleW := p.GPUIdlePower(p.GPUFreqsHz[e.gpuLevel])
		e.advance(cpuRemaining, gpuIdleW+cpuPower, false, true, 0)
	}
	e.images += batch
	e.finishPass(g, e.costRef, passStart, passEnergy, gpuBusy)
	if e.rec != nil {
		e.finishRecording(batch, gpuBusy)
	}
}

// costTable returns the op-cost table for (g, batch), resetting it only
// when the graph, batch or platform changes, and keeps costRef in step.
func (e *Executor) costTable(g *graph.Graph, batch int) *CostTable {
	ct := &e.cost
	if ct.p != e.Platform || ct.g != g || ct.batch != batch {
		ct.reset(e.Platform, g, batch)
		e.costRef, _ = ct.segment(0, len(g.Layers)-1, len(ct.rows)-1)
	}
	return ct
}

func clampCPU(p *hw.Platform, level int) int {
	if level < 0 {
		return 0
	}
	if level >= len(p.CPUFreqsHz) {
		return len(p.CPUFreqsHz) - 1
	}
	return level
}

// RunTask simulates one task (images × one model) from a cold start. With
// Batch > 1, images are processed in batched passes (rounding the total up
// to a batch multiple; Result.Images reports the actual count).
func (e *Executor) RunTask(g *graph.Graph, images int) Result {
	e.reset()
	e.runImages(g, images)
	return e.result()
}

// runImages processes at least the given number of images in batched passes.
// With macro-stepping eligible (macro.go), each pass first tries the
// analytic fast-forward; misses micro-step (recording a representative pass)
// and boundary/demotion cases micro-step for exactness.
func (e *Executor) runImages(g *graph.Graph, images int) {
	batch := e.Batch
	if batch < 1 {
		batch = 1
	}
	for done := 0; done < images; done += batch {
		if e.macroOK && e.fastForward(g, batch) {
			continue
		}
		e.runImage(g)
	}
	e.flushCells(g)
}

// RunTaskFlow simulates a task flow (§3.2.2): tasks back to back with an
// idle gap between them, during which reactive governors scale down — and
// then pay their response lag when the next task arrives.
func (e *Executor) RunTaskFlow(tasks []Task, gap time.Duration) Result {
	e.reset()
	for i, t := range tasks {
		if i > 0 && gap > 0 {
			e.idle(gap)
		}
		e.runImages(t.Graph, t.Images)
	}
	return e.result()
}

// idle advances time with no work queued. In window-inert mode the whole gap
// is one advance — no window ticks can change anything.
func (e *Executor) idle(d time.Duration) {
	if e.windowInert {
		w := e.Platform.GPUIdlePower(e.Platform.GPUFreqsHz[e.gpuLevel])
		e.advance(d, w, false, false, 0)
		return
	}
	for d > 0 {
		step := e.WindowPeriod - e.winElapsed
		if step > d {
			step = d
		}
		w := e.Platform.GPUIdlePower(e.Platform.GPUFreqsHz[e.gpuLevel])
		e.advance(step, w, false, false, 0)
		d -= step
	}
}

func (e *Executor) result() Result {
	r := Result{
		Controller: e.Ctl.Name(),
		Platform:   e.Platform.Name,
		Images:     e.images,
		Time:       e.sensor.Now(),
		EnergyJ:    e.sensor.EnergyJ(),
		Switches:   e.switches,
		Samples:    e.sensor.Samples(),
	}
	if e.thermal != nil {
		r.PeakTempC = e.thermal.PeakC
		r.ThrottledTime = e.thermal.ThrottledTime
	}
	r.Faults = e.faultStats
	r.Passes = e.passes
	r.QoSViolations = e.qosViolations
	if e.attrib {
		r.LevelEnergyJ = append([]float64(nil), e.levelEnergy...)
		r.LevelTime = append([]time.Duration(nil), e.levelTime...)
	}
	e.obsResult(r)
	return r
}
