package sim

import (
	"math"
	"testing"
	"time"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/models"
)

// fixedCtl is a minimal controller pinned at one level.
type fixedCtl struct {
	level int
	p     *hw.Platform
}

func (f *fixedCtl) Name() string                  { return "fixed" }
func (f *fixedCtl) Reset(p *hw.Platform)          { f.p = p }
func (f *fixedCtl) GPULevel() int                 { return f.level }
func (f *fixedCtl) CPULevel() int                 { return len(f.p.CPUFreqsHz) - 1 }
func (f *fixedCtl) BeforeLayer(*graph.Graph, int) {}
func (f *fixedCtl) OnWindow(WindowStats)          {}

func TestRunTaskBasics(t *testing.T) {
	p := hw.TX2()
	e := NewExecutor(p, &fixedCtl{level: p.NumGPULevels() - 1})
	g := models.AlexNet()
	r := e.RunTask(g, 10)
	if r.Images != 10 {
		t.Fatalf("images = %d", r.Images)
	}
	if r.Time <= 0 || r.EnergyJ <= 0 {
		t.Fatalf("time=%v energy=%v", r.Time, r.EnergyJ)
	}
	if r.Switches != 0 {
		t.Fatalf("fixed controller switched %d times", r.Switches)
	}
	if r.EE() <= 0 || r.FPS() <= 0 || r.AvgPowerW() <= 0 {
		t.Fatal("derived metrics must be positive")
	}
	if math.Abs(r.AvgPowerW()*r.Time.Seconds()-r.EnergyJ) > 1e-9 {
		t.Fatal("P̄·t must equal E")
	}
}

func TestComputeBoundFasterAtHigherLevel(t *testing.T) {
	p := hw.TX2()
	g := models.VGG19() // heavily compute-bound
	lo := NewExecutor(p, &fixedCtl{level: 0}).RunTask(g, 2)
	hi := NewExecutor(p, &fixedCtl{level: p.NumGPULevels() - 1}).RunTask(g, 2)
	if hi.Time >= lo.Time {
		t.Fatalf("fmax run (%v) must be faster than fmin run (%v)", hi.Time, lo.Time)
	}
	if hi.AvgPowerW() <= lo.AvgPowerW() {
		t.Fatal("fmax run must draw more power")
	}
}

func TestEnergyMatchesSegmentCostAtFixedLevel(t *testing.T) {
	// With zero CPU work and a fixed level, task energy must equal the
	// closed-form segment cost.
	p := hw.TX2()
	p.CPUWorkPerImage = 0
	g := models.ResNet34()
	level := 8
	e := NewExecutor(p, &fixedCtl{level: level})
	r := e.RunTask(g, 1)
	_, segE := NewCostTable(p, g).SegmentCost(0, len(g.Layers)-1, level)
	// Allow for nanosecond quantization of per-op durations.
	if math.Abs(r.EnergyJ-segE)/segE > 1e-4 {
		t.Fatalf("executor energy %.6f J != segment cost %.6f J", r.EnergyJ, segE)
	}
}

func TestSegmentCostAdditive(t *testing.T) {
	p := hw.AGX()
	g := models.ResNet34()
	ct := NewCostTable(p, g)
	mid := len(g.Layers) / 2
	t1, e1 := ct.SegmentCost(0, mid, 5)
	t2, e2 := ct.SegmentCost(mid+1, len(g.Layers)-1, 5)
	tAll, eAll := ct.SegmentCost(0, len(g.Layers)-1, 5)
	if math.Abs((e1+e2-eAll)/eAll) > 1e-12 {
		t.Fatal("segment energy must be additive")
	}
	if d := (t1 + t2 - tAll); d < -time.Nanosecond || d > time.Nanosecond {
		t.Fatal("segment time must be additive")
	}
}

func TestOptimalSegmentLevelInterior(t *testing.T) {
	for _, p := range hw.Platforms() {
		g := models.ResNet152()
		ct := NewCostTable(p, g)
		best, energies := ct.OptimalSegmentLevel(0, len(g.Layers)-1)
		if len(energies) != p.NumGPULevels() {
			t.Fatalf("energies len = %d", len(energies))
		}
		if best == 0 || best == p.NumGPULevels()-1 {
			t.Fatalf("%s: best level %d at ladder edge", p.Name, best)
		}
		// Best minimizes the E·t^θ score over the ladder.
		score := func(lvl int) float64 {
			d, e := ct.SegmentCost(0, len(g.Layers)-1, lvl)
			return e * math.Pow(d.Seconds(), PerfWeight)
		}
		for i := range energies {
			if score(i) < score(best)-1e-12 {
				t.Fatalf("level %d score beats reported best %d", i, best)
			}
		}
		// The performance weight must place the target at or above the pure
		// energy optimum for a compute-heavy network.
		eBest := 0
		for i, e := range energies {
			if e < energies[eBest] {
				eBest = i
			}
		}
		if best < eBest {
			t.Fatalf("%s: θ-optimal level %d below energy-optimal %d", p.Name, best, eBest)
		}
	}
}

// windowCountCtl counts OnWindow calls to verify window ticking.
type windowCountCtl struct {
	fixedCtl
	windows int
	stats   []WindowStats
}

func (w *windowCountCtl) OnWindow(s WindowStats) {
	w.windows++
	w.stats = append(w.stats, s)
}

func TestWindowTicks(t *testing.T) {
	p := hw.TX2()
	ctl := &windowCountCtl{fixedCtl: fixedCtl{level: 6}}
	e := NewExecutor(p, ctl)
	e.WindowPeriod = 10 * time.Millisecond
	r := e.RunTask(models.ResNet34(), 5)
	expected := int(r.Time / e.WindowPeriod)
	if ctl.windows < expected-1 || ctl.windows > expected+1 {
		t.Fatalf("windows = %d, expected ~%d", ctl.windows, expected)
	}
	// During steady inference GPU busy fraction must be high.
	busy := 0.0
	for _, s := range ctl.stats {
		busy += s.GPUBusy
	}
	busy /= float64(len(ctl.stats))
	if busy < 0.7 {
		t.Fatalf("mean GPU busy = %.2f, want high during inference", busy)
	}
}

func TestIdleGapsAccrueEnergyNotImages(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	tasks := []Task{{g, 2}, {g, 2}}
	noGap := NewExecutor(p, &fixedCtl{level: 6}).RunTaskFlow(tasks, 0)
	withGap := NewExecutor(p, &fixedCtl{level: 6}).RunTaskFlow(tasks, 200*time.Millisecond)
	if withGap.Images != noGap.Images {
		t.Fatal("gap must not change image count")
	}
	if withGap.Time <= noGap.Time {
		t.Fatal("gap must extend wall time")
	}
	if withGap.EnergyJ <= noGap.EnergyJ {
		t.Fatal("idling must cost energy")
	}
}

// switchingCtl toggles level every layer to exercise switch accounting.
type switchingCtl struct {
	fixedCtl
	flip bool
}

func (s *switchingCtl) BeforeLayer(*graph.Graph, int) {
	s.flip = !s.flip
	if s.flip {
		s.level = 3
	} else {
		s.level = 9
	}
}

func TestSwitchCostsAccrue(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	stable := NewExecutor(p, &fixedCtl{level: 9}).RunTask(g, 3)
	thrash := NewExecutor(p, &switchingCtl{}).RunTask(g, 3)
	if thrash.Switches == 0 {
		t.Fatal("switching controller must record switches")
	}
	if thrash.Time <= stable.Time {
		t.Fatal("per-layer thrashing must cost time (switch latency)")
	}
}

func TestSamplesRecorded(t *testing.T) {
	p := hw.AGX()
	e := NewExecutor(p, &fixedCtl{level: 5})
	e.SensorPeriod = time.Millisecond
	r := e.RunTask(models.GoogLeNet(), 3)
	if len(r.Samples) == 0 {
		t.Fatal("no trace samples recorded")
	}
	want := p.GPUFreqsHz[5]
	for _, s := range r.Samples {
		if s.FreqHz != want {
			t.Fatalf("sample freq %g, want %g", s.FreqHz, want)
		}
		if s.PowerW <= 0 {
			t.Fatal("sample power must be positive")
		}
	}
}

func TestResultZeroSafety(t *testing.T) {
	var r Result
	if r.EE() != 0 || r.FPS() != 0 || r.AvgPowerW() != 0 {
		t.Fatal("zero-value Result metrics must be 0")
	}
}
