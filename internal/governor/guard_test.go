package governor

import (
	"math"
	"testing"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/sim"
)

// brokenCtl misbehaves in configurable ways: out-of-range levels, wide
// ping-pong, or healing after a number of windows.
type brokenCtl struct {
	platform *hw.Platform
	windows  int

	outOfRange bool
	pingPong   bool
	healAfter  int // windows after which it starts behaving (0 = never)
}

func (b *brokenCtl) Name() string { return "broken" }
func (b *brokenCtl) Reset(p *hw.Platform) {
	b.platform = p
	b.windows = 0
}
func (b *brokenCtl) healed() bool { return b.healAfter > 0 && b.windows >= b.healAfter }
func (b *brokenCtl) GPULevel() int {
	if b.healed() {
		return b.platform.NumGPULevels() / 2
	}
	if b.outOfRange {
		return b.platform.NumGPULevels() + 50
	}
	if b.pingPong {
		if b.windows%2 == 0 {
			return 0
		}
		return b.platform.NumGPULevels() - 1
	}
	return b.platform.NumGPULevels() / 2
}
func (b *brokenCtl) CPULevel() int                 { return len(b.platform.CPUFreqsHz) - 1 }
func (b *brokenCtl) BeforeLayer(*graph.Graph, int) {}
func (b *brokenCtl) OnWindow(sim.WindowStats)      { b.windows++ }

func TestGuardPassesThroughHealthyPolicy(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	inner := NewStatic(7)
	guard := NewGuard(inner)
	r := sim.NewExecutor(p, guard).RunTask(g, 30)
	base := sim.NewExecutor(p, NewStatic(7)).RunTask(g, 30)
	if r.EnergyJ != base.EnergyJ || r.Time != base.Time {
		t.Fatalf("guard changed a healthy policy's run: %+v vs %+v", r, base)
	}
	if guard.Stats.FallbackActivations != 0 || guard.Stats.InvalidLevels != 0 {
		t.Fatalf("guard intervened on a healthy policy: %+v", guard.Stats)
	}
	if guard.Name() != "guard(static)" {
		t.Fatalf("name = %q", guard.Name())
	}
}

func TestGuardFallsBackOnInvalidLevels(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	guard := NewGuard(&brokenCtl{outOfRange: true})
	r := sim.NewExecutor(p, guard).RunTask(g, 30)
	if r.EnergyJ <= 0 {
		t.Fatalf("run did not complete: %+v", r)
	}
	if guard.Stats.InvalidLevels == 0 {
		t.Fatal("invalid levels not counted")
	}
	if guard.Stats.FallbackActivations == 0 {
		t.Fatalf("guard never failed over: %+v", guard.Stats)
	}
	if !guard.OnFallback() {
		t.Fatal("permanently broken policy must leave the guard on fallback")
	}
	if guard.Stats.FallbackWindows == 0 {
		t.Fatal("no fallback windows counted")
	}
}

func TestGuardDetectsOscillation(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	guard := NewGuard(&brokenCtl{pingPong: true})
	sim.NewExecutor(p, guard).RunTask(g, 60)
	if guard.Stats.Oscillations == 0 {
		t.Fatalf("ping-pong not detected: %+v", guard.Stats)
	}
	if guard.Stats.FallbackActivations == 0 {
		t.Fatalf("oscillating policy never tripped failover: %+v", guard.Stats)
	}
}

func TestGuardRecoversWhenPolicyHeals(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	inner := &brokenCtl{outOfRange: true, healAfter: 12}
	guard := NewGuard(inner)
	guard.RecoveryWindows = 4
	sim.NewExecutor(p, guard).RunTask(g, 200)
	if guard.Stats.FallbackActivations == 0 {
		t.Fatalf("never failed over: %+v", guard.Stats)
	}
	if guard.Stats.Recoveries == 0 {
		t.Fatalf("never recovered the healed policy: %+v", guard.Stats)
	}
	if guard.OnFallback() {
		t.Fatal("guard should end the run back on the healed policy")
	}
}

func TestGuardSanitizesNaNWindows(t *testing.T) {
	p := hw.TX2()
	guard := NewGuard(NewOndemand())
	guard.Reset(p)
	clean := sim.WindowStats{GPUBusy: 0.5, AvgPowerW: 4}
	guard.OnWindow(clean)
	guard.OnWindow(sim.WindowStats{GPUBusy: math.NaN(), AvgPowerW: math.Inf(1)})
	if guard.Stats.NaNWindows != 1 {
		t.Fatalf("NaN window not sanitized: %+v", guard.Stats)
	}
	if lvl := guard.GPULevel(); lvl < 0 || lvl >= p.NumGPULevels() {
		t.Fatalf("guard emitted invalid level %d after NaN window", lvl)
	}
	// NaN input is the sensor's fault, not the policy's: no failover.
	if guard.OnFallback() {
		t.Fatal("NaN inputs alone must not trip the failover")
	}
}

func TestGuardUnderFaultScheduleTracksCleanRun(t *testing.T) {
	// The acceptance bound: a guard-wrapped PowerLens-style preset policy
	// under a nonzero fault schedule stays within 10% of its fault-free EE.
	p := hw.TX2()
	g := models.AlexNet()
	lvl, _ := sim.NewCostTable(p, g).OptimalSegmentLevel(0, len(g.Layers)-1)
	plan := &FrequencyPlan{Model: g.Name, Points: map[int]int{0: lvl}}
	clean := sim.NewExecutor(p, NewGuard(NewPowerLens(plan))).RunTask(g, 50)

	e := sim.NewExecutor(p, NewGuard(NewPowerLens(plan)))
	e.Faults = hw.NewInjector(hw.FaultConfig{
		Seed:              17,
		SensorDropoutProb: 0.10, SensorNoiseFrac: 0.15,
		StuckProb: 0.15, ClampProb: 0.05,
		DelayProb: 0.25, DelayLatency: 2e6,
	})
	faulty := e.RunTask(g, 50)
	ratio := faulty.EE() / clean.EE()
	if ratio < 0.90 || ratio > 1.10 {
		t.Fatalf("guarded EE ratio %.3f outside ±10%% (clean %.4f faulty %.4f, faults %+v)",
			ratio, clean.EE(), faulty.EE(), faulty.Faults)
	}
}

func TestGuardStatsAdd(t *testing.T) {
	a := GuardStats{InvalidLevels: 1, Oscillations: 2, FallbackWindows: 3}
	a.Add(GuardStats{NaNWindows: 4, FallbackActivations: 5, Recoveries: 6, InvalidLevels: 7})
	want := GuardStats{InvalidLevels: 8, NaNWindows: 4, Oscillations: 2,
		FallbackActivations: 5, FallbackWindows: 3, Recoveries: 6}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}
