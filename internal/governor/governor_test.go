package governor

import (
	"testing"
	"time"

	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/sim"
)

func TestStaticStaysPut(t *testing.T) {
	p := hw.TX2()
	s := NewStatic(4)
	r := sim.NewExecutor(p, s).RunTask(models.AlexNet(), 5)
	if r.Switches != 0 {
		t.Fatalf("static switched %d times", r.Switches)
	}
	for _, smp := range r.Samples {
		if smp.FreqHz != p.GPUFreqsHz[4] {
			t.Fatalf("freq drifted to %g", smp.FreqHz)
		}
	}
	if s.CPULevel() != len(p.CPUFreqsHz)-1 {
		t.Fatal("static CPU level must be top")
	}
}

// TestPerformanceAndPowersavePins pins the stock performance and powersave
// policies, which are Static at the top level and at level 0: they hold fmax
// and fmin, neither switches, fmax is faster, and an interior level beats
// both on EE for a compute workload.
func TestPerformanceAndPowersavePins(t *testing.T) {
	p := hw.TX2()
	g := models.MustBuild("alexnet")

	perf := sim.NewExecutor(p, NewStatic(p.NumGPULevels()-1)).RunTask(g, 3)
	save := sim.NewExecutor(p, NewStatic(0)).RunTask(g, 3)

	if perf.Switches != 0 || save.Switches != 0 {
		t.Fatal("pinned levels must not switch")
	}
	for _, s := range perf.Samples {
		if s.FreqHz != p.MaxGPUFreq() {
			t.Fatal("top level must pin fmax")
		}
	}
	for _, s := range save.Samples {
		if s.FreqHz != p.MinGPUFreq() {
			t.Fatal("level 0 must pin fmin")
		}
	}
	if perf.Time >= save.Time {
		t.Fatal("fmax must be faster than fmin")
	}
	mid := sim.NewExecutor(p, NewStatic(6)).RunTask(g, 3)
	if mid.EE() <= perf.EE() || mid.EE() <= save.EE() {
		t.Fatalf("interior level must beat both extremes: mid %.4f fmax %.4f fmin %.4f",
			mid.EE(), perf.EE(), save.EE())
	}
}

func TestOndemandPegsMaxUnderLoad(t *testing.T) {
	p := hw.TX2()
	e := sim.NewExecutor(p, NewOndemand())
	r := e.RunTask(models.ResNet152(), 10)
	// After the first window, a busy GPU must sit at fmax.
	var atMax, total int
	for i, s := range r.Samples {
		if i < 10 { // skip boot windows
			continue
		}
		total++
		if s.FreqHz == p.MaxGPUFreq() {
			atMax++
		}
	}
	if total == 0 || float64(atMax)/float64(total) < 0.8 {
		t.Fatalf("ondemand at fmax only %d/%d samples under load", atMax, total)
	}
}

func TestOndemandScalesDownWhenIdle(t *testing.T) {
	p := hw.TX2()
	e := sim.NewExecutor(p, NewOndemand())
	g := models.AlexNet()
	// Long idle gap between two tasks: the governor must fall down the
	// ladder during the gap.
	r := e.RunTaskFlow([]sim.Task{{Graph: g, Images: 3}, {Graph: g, Images: 3}}, 2*time.Second)
	sawLow := false
	for _, s := range r.Samples {
		if s.FreqHz <= p.GPUFreqsHz[1] {
			sawLow = true
			break
		}
	}
	if !sawLow {
		t.Fatal("ondemand never scaled down during a 2s idle gap")
	}
}

// Fig. 1A lag: a reactive governor starts a task at whatever frequency its
// history left it and only responds after a sampling window has elapsed, so
// a cold start runs its first window below fmax even though the workload is
// compute-hungry from the first kernel.
func TestOndemandLagAfterIdle(t *testing.T) {
	p := hw.TX2()
	e := sim.NewExecutor(p, NewOndemand())
	e.SensorPeriod = time.Millisecond
	r := e.RunTask(models.ResNet152(), 5)
	if len(r.Samples) < 100 {
		t.Fatalf("trace too short: %d samples", len(r.Samples))
	}
	// Samples inside the first governor window (50 ms): still at the boot
	// level, strictly below fmax — the response lag.
	for _, s := range r.Samples[:20] {
		if s.FreqHz >= p.MaxGPUFreq() {
			t.Fatalf("no lag: governor at fmax %v after start", s.At)
		}
	}
	// Later the governor must have reacted and reached fmax.
	reached := false
	for _, s := range r.Samples[60:] {
		if s.FreqHz == p.MaxGPUFreq() {
			reached = true
			break
		}
	}
	if !reached {
		t.Fatal("governor never ramped to fmax under sustained load")
	}
}

func TestFPGGSettlesBelowMax(t *testing.T) {
	p := hw.AGX()
	e := sim.NewExecutor(p, NewFPGG())
	r := e.RunTask(models.ResNet152(), 30)
	// FPG-G hill-climbs toward the EDP-optimal region: over the steady
	// state it must spend most samples strictly below fmax.
	below, total := 0, 0
	for i, s := range r.Samples {
		if i < len(r.Samples)/3 {
			continue // settling phase
		}
		total++
		if s.FreqHz < p.MaxGPUFreq() {
			below++
		}
	}
	if total == 0 || float64(below)/float64(total) < 0.6 {
		t.Fatalf("FPG-G below fmax only %d/%d steady-state samples", below, total)
	}
}

func TestFPGGDithers(t *testing.T) {
	// The ping-pong critique: a hill-climbing reactive governor keeps
	// switching in steady state.
	p := hw.TX2()
	e := sim.NewExecutor(p, NewFPGG())
	r := e.RunTask(models.ResNet152(), 30)
	if r.Switches < 5 {
		t.Fatalf("FPG-G switched only %d times; expected steady dithering", r.Switches)
	}
}

func TestFPGCGAdjustsCPU(t *testing.T) {
	p := hw.TX2()
	ctl := NewFPGCG()
	e := sim.NewExecutor(p, ctl)
	e.RunTask(models.ResNet152(), 20)
	// Host busy fraction is low during GPU-heavy inference, so FPG-C+G must
	// have lowered the CPU from the top level.
	if ctl.CPULevel() >= len(p.CPUFreqsHz)-1 {
		t.Fatalf("FPG-C+G CPU level = %d, expected scaled down", ctl.CPULevel())
	}
}

func TestFPGCGBeatsFPGGOnEnergy(t *testing.T) {
	p := hw.TX2()
	g := models.ResNet152()
	rg := sim.NewExecutor(p, NewFPGG()).RunTask(g, 20)
	rcg := sim.NewExecutor(p, NewFPGCG()).RunTask(g, 20)
	if rcg.EnergyJ >= rg.EnergyJ {
		t.Fatalf("FPG-C+G energy %.1f J must beat FPG-G %.1f J (CPU scaling)", rcg.EnergyJ, rg.EnergyJ)
	}
}

func TestPowerLensAppliesPlan(t *testing.T) {
	p := hw.TX2()
	g := models.ResNet34()
	plan := &FrequencyPlan{Model: g.Name, Points: map[int]int{0: 3, len(g.Layers) / 2: 10}}
	ctl := NewPowerLens(plan)
	r := sim.NewExecutor(p, ctl).RunTask(g, 2)
	if r.Switches < 2 {
		t.Fatalf("plan with 2 points over 2 images switched %d times", r.Switches)
	}
	saw3, saw10 := false, false
	for _, s := range r.Samples {
		if s.FreqHz == p.GPUFreqsHz[3] {
			saw3 = true
		}
		if s.FreqHz == p.GPUFreqsHz[10] {
			saw10 = true
		}
	}
	if !saw3 || !saw10 {
		t.Fatalf("plan levels not observed in trace: l3=%v l10=%v", saw3, saw10)
	}
	if plan.NumPoints() != 2 {
		t.Fatal("NumPoints wrong")
	}
}

func TestPowerLensIgnoresOtherModels(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	plan := &FrequencyPlan{Model: "someothermodel", Points: map[int]int{0: 0}}
	ctl := NewPowerLens(plan)
	r := sim.NewExecutor(p, ctl).RunTask(g, 2)
	if r.Switches != 0 {
		t.Fatal("plan for another model must not trigger switches")
	}
}

func TestPowerLensNoPingPong(t *testing.T) {
	// With a 2-block plan, per-image switches are exactly 2 (block entry
	// points), independent of workload dynamics — no ping-pong.
	p := hw.TX2()
	g := models.ResNet34()
	plan := &FrequencyPlan{Model: g.Name, Points: map[int]int{0: 5, len(g.Layers) / 2: 9}}
	images := 10
	r := sim.NewExecutor(p, NewPowerLens(plan)).RunTask(g, images)
	if r.Switches > 2*images {
		t.Fatalf("switches = %d, want <= %d", r.Switches, 2*images)
	}
}

func TestMultiPlanDispatch(t *testing.T) {
	p := hw.TX2()
	a, b := models.AlexNet(), models.GoogLeNet()
	plans := map[string]*FrequencyPlan{
		a.Name: {Model: a.Name, Points: map[int]int{0: 2}},
		b.Name: {Model: b.Name, Points: map[int]int{0: 11}},
	}
	ctl := NewMultiPlan(plans)
	r := sim.NewExecutor(p, ctl).RunTaskFlow(
		[]sim.Task{{Graph: a, Images: 2}, {Graph: b, Images: 2}}, 0)
	saw2, saw11 := false, false
	for _, s := range r.Samples {
		if s.FreqHz == p.GPUFreqsHz[2] {
			saw2 = true
		}
		if s.FreqHz == p.GPUFreqsHz[11] {
			saw11 = true
		}
	}
	if !saw2 || !saw11 {
		t.Fatalf("multi-plan levels not applied: a=%v b=%v", saw2, saw11)
	}
}

func TestControllerNames(t *testing.T) {
	if NewOndemand().Name() != "BiM" {
		t.Fatal("ondemand must report BiM")
	}
	if NewFPGG().Name() != "FPG-G" || NewFPGCG().Name() != "FPG-CG" {
		t.Fatal("FPG names wrong")
	}
	if NewPowerLens(nil).Name() != "PowerLens" || NewMultiPlan(nil).Name() != "PowerLens" {
		t.Fatal("PowerLens names wrong")
	}
}
