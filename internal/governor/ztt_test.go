package governor

import (
	"testing"

	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/sim"
)

func TestZTTRuns(t *testing.T) {
	p := hw.TX2()
	z := NewZTT(1)
	r := sim.NewExecutor(p, z).RunTask(models.MustBuild("resnet34"), 30)
	if r.Images != 30 || r.EnergyJ <= 0 {
		t.Fatalf("bad run: %+v", r)
	}
	if z.Name() != "zTT" {
		t.Fatal("name wrong")
	}
}

func TestZTTLearnsBelowFmax(t *testing.T) {
	// With a power-penalized reward, the agent must not settle at fmax —
	// after the learning phase most residency sits strictly below the top.
	p := hw.TX2()
	e := sim.NewExecutor(p, NewZTT(7))
	r := e.RunTask(models.MustBuild("resnet152"), 80)
	below, total := 0, 0
	for i, s := range r.Samples {
		if i < len(r.Samples)/2 { // learning phase
			continue
		}
		total++
		if s.FreqHz < p.MaxGPUFreq() {
			below++
		}
	}
	if total == 0 || float64(below)/float64(total) < 0.5 {
		t.Fatalf("zTT at fmax too often: %d/%d below", below, total)
	}
}

func TestZTTBeatsOndemandOnEnergy(t *testing.T) {
	p := hw.TX2()
	g := models.MustBuild("resnet152")
	ztt := sim.NewExecutor(p, NewZTT(3)).RunTask(g, 60)
	bim := sim.NewExecutor(p, NewOndemand()).RunTask(g, 60)
	if ztt.EnergyJ >= bim.EnergyJ {
		t.Fatalf("zTT energy %.1f >= ondemand %.1f", ztt.EnergyJ, bim.EnergyJ)
	}
}

func TestZTTLosesToPowerLens(t *testing.T) {
	// The paper's positioning: learning-based reactive DVFS still lags
	// offline preset per-block frequencies.
	p := hw.TX2()
	g := models.MustBuild("resnet152")
	n := len(g.Layers) - 1
	lvl, _ := sim.NewCostTable(p, g).OptimalSegmentLevel(0, n)
	plan := &FrequencyPlan{Model: g.Name, Points: map[int]int{0: lvl}}
	pl := sim.NewExecutor(p, NewPowerLens(plan)).RunTask(g, 60)
	ztt := sim.NewExecutor(p, NewZTT(3)).RunTask(g, 60)
	if pl.EE() <= ztt.EE() {
		t.Fatalf("PowerLens EE %.4f <= zTT %.4f", pl.EE(), ztt.EE())
	}
}

func TestZTTDeterministicPerSeed(t *testing.T) {
	p := hw.TX2()
	g := models.MustBuild("googlenet")
	a := sim.NewExecutor(p, NewZTT(5)).RunTask(g, 20)
	b := sim.NewExecutor(p, NewZTT(5)).RunTask(g, 20)
	if a.EnergyJ != b.EnergyJ || a.Switches != b.Switches {
		t.Fatal("same seed must reproduce the same trajectory")
	}
}

func TestZTTStateBounds(t *testing.T) {
	p := hw.TX2()
	z := NewZTT(1)
	z.Reset(p)
	for _, busy := range []float64{-0.1, 0, 0.5, 0.999, 1.0, 1.5} {
		s := z.stateOf(sim.WindowStats{GPUBusy: busy})
		if s < 0 || s >= len(z.q) {
			t.Fatalf("state %d out of bounds for busy=%v", s, busy)
		}
	}
}
