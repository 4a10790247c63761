package main

import (
	"math"
	"testing"
	"time"

	"powerlens/internal/cloud"
	"powerlens/internal/cluster"
	"powerlens/internal/core"
	"powerlens/internal/governor"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/sim"
)

func TestCheckFleetCompleteFailsOnDoctoredResult(t *testing.T) {
	jobs := []cloud.Job{{Images: 3}, {Images: 4}, {Images: 5}}
	good := cloud.Result{
		Nodes:       []cloud.NodeResult{{Node: 0, Jobs: 2}, {Node: 1, Jobs: 1}},
		TotalImages: 12,
	}
	if err := checkFleetComplete(good, jobs); err != nil {
		t.Fatalf("complete fleet: %v", err)
	}
	dropped := good
	dropped.DroppedJobs = 1
	short := good
	short.Nodes = []cloud.NodeResult{{Node: 0, Jobs: 2}}
	images := good
	images.TotalImages = 11
	for name, res := range map[string]cloud.Result{"dropped": dropped, "short": short, "images": images} {
		if err := checkFleetComplete(res, jobs); err == nil {
			t.Errorf("%s: doctored fleet result passed", name)
		}
	}
}

func TestCheckSameFailsOnOneULP(t *testing.T) {
	a := cloud.Result{TotalEnergyJ: 1234.5, MeanTurnaround: 21 * time.Second}
	if err := checkSame("repeat", a, a); err != nil {
		t.Fatal(err)
	}
	b := a
	b.TotalEnergyJ = math.Nextafter(a.TotalEnergyJ, 2000)
	if err := checkSame("macro vs micro", a, b); err == nil {
		t.Error("results one ulp apart passed")
	}
	if err := checkSame("ledger export", []byte("x 1\n"), []byte("x 2\n")); err == nil {
		t.Error("different exports passed")
	}
}

func TestCheckPlanFailsOnDoctoredPlan(t *testing.T) {
	p := hw.TX2()
	g := models.MustBuild("alexnet")
	last := len(g.Layers) - 1
	mid := last / 2
	plan := func() *core.Analysis {
		return &core.Analysis{
			View: &cluster.PowerView{Model: g.Name, Blocks: []cluster.PowerBlock{
				{StartLayer: 0, EndLayer: mid}, {StartLayer: mid + 1, EndLayer: last},
			}},
			Levels: []int{3, 7},
			Plan:   &governor.FrequencyPlan{Model: g.Name, Points: map[int]int{0: 3, mid + 1: 7}},
		}
	}
	if err := checkPlan(p, g, plan()); err != nil {
		t.Fatalf("valid plan: %v", err)
	}
	whole := &core.Analysis{View: cluster.WholeNetworkView(g), Levels: []int{5},
		Plan: &governor.FrequencyPlan{Model: g.Name, Points: map[int]int{0: 5}}}
	if err := checkPlan(p, g, whole); err != nil {
		t.Fatalf("whole-network plan: %v", err)
	}

	doctor := map[string]func(a *core.Analysis){
		"level above ladder": func(a *core.Analysis) { a.Levels[1] = p.NumGPULevels(); a.Plan.Points[mid+1] = p.NumGPULevels() },
		"negative level":     func(a *core.Analysis) { a.Levels[0] = -1; a.Plan.Points[0] = -1 },
		"gap between blocks": func(a *core.Analysis) {
			a.View.Blocks[1].StartLayer = mid + 2
			a.Plan.Points = map[int]int{0: 3, mid + 2: 7}
		},
		"overlapping blocks": func(a *core.Analysis) { a.View.Blocks[1].StartLayer = mid; a.Plan.Points = map[int]int{0: 3, mid: 7} },
		"last layer missing": func(a *core.Analysis) { a.View.Blocks[1].EndLayer = last - 1 },
		"not from layer 0":   func(a *core.Analysis) { a.View.Blocks[0].StartLayer = 1; a.Plan.Points = map[int]int{1: 3, mid + 1: 7} },
		"plan level differs": func(a *core.Analysis) { a.Plan.Points[mid+1] = 6 },
		"extra plan point":   func(a *core.Analysis) { a.Plan.Points[last] = 7 },
		"levels short":       func(a *core.Analysis) { a.Levels = a.Levels[:1] },
		"no plan":            func(a *core.Analysis) { a.Plan = nil },
	}
	for name, f := range doctor {
		a := plan()
		f(a)
		if err := checkPlan(p, g, a); err == nil {
			t.Errorf("%s: doctored plan passed", name)
		}
	}
}

func TestEERatios(t *testing.T) {
	res := func(images int, energy float64) sim.Result { return sim.Result{Images: images, EnergyJ: energy} }
	evs := []zooEval{
		{Model: "a", Plans: []sim.Result{res(10, 5)}, BiM: res(10, 10), Static: []sim.Result{res(10, 8), res(10, 4)}},
		{Model: "b", Plans: []sim.Result{res(10, 10), res(10, 2.5)}, BiM: res(10, 5), Static: []sim.Result{res(10, 5)}},
	}
	// Plan/BiM ratios 2, 0.5, 2; plan/best-static ratios 0.8, 0.5, 2.
	vsBiM, vsStatic, err := eeRatios(evs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vsBiM-math.Cbrt(2)) > 1e-12 || math.Abs(vsStatic-math.Cbrt(0.8)) > 1e-12 {
		t.Errorf("eeRatios = %v, %v; want %v, %v", vsBiM, vsStatic, math.Cbrt(2), math.Cbrt(0.8))
	}
	evs[0].BiM = res(10, 0) // a zero-energy run has no EE
	if _, _, err := eeRatios(evs); err == nil {
		t.Error("zero BiM energy passed")
	}
	if _, _, err := eeRatios(nil); err == nil {
		t.Error("no plans passed")
	}
}
