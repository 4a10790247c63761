package cloud

import (
	"testing"
	"time"

	"powerlens/internal/governor"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/sim"
)

func testJobs(n int) []Job {
	return RandomJobs(n, 500*time.Millisecond, 11)
}

func staticFactory(level int) ControllerFactory {
	return func() sim.Controller { return governor.NewStatic(level) }
}

func TestRunBasics(t *testing.T) {
	p := hw.TX2()
	jobs := testJobs(12)
	res, err := Run(Config{Nodes: 3, Platform: p, NewCtl: staticFactory(7)}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	wantImages := 0
	for _, j := range jobs {
		wantImages += j.Images
	}
	if res.TotalImages != wantImages {
		t.Fatalf("images = %d, want %d", res.TotalImages, wantImages)
	}
	if res.TotalEnergyJ <= 0 || res.Makespan <= 0 || res.EE() <= 0 {
		t.Fatalf("bad aggregates: %+v", res)
	}
	totalJobs := 0
	for _, nr := range res.Nodes {
		totalJobs += nr.Jobs
		if nr.BusyEnd > res.Makespan {
			t.Fatal("node finished after makespan")
		}
	}
	if totalJobs != len(jobs) {
		t.Fatalf("dispatched %d jobs, want %d", totalJobs, len(jobs))
	}
	if res.MeanTurnaround <= 0 {
		t.Fatal("turnaround missing")
	}
}

func TestRunValidation(t *testing.T) {
	p := hw.TX2()
	if _, err := Run(Config{Nodes: 0, Platform: p, NewCtl: staticFactory(5)}, nil); err == nil {
		t.Fatal("expected error for zero nodes")
	}
	if _, err := Run(Config{Nodes: 1}, nil); err == nil {
		t.Fatal("expected error for missing platform/factory")
	}
}

func TestMoreNodesShortenMakespan(t *testing.T) {
	p := hw.TX2()
	jobs := testJobs(16)
	one, err := Run(Config{Nodes: 1, Platform: p, NewCtl: staticFactory(7)}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(Config{Nodes: 4, Platform: p, NewCtl: staticFactory(7)}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if four.Makespan >= one.Makespan {
		t.Fatalf("4-node makespan %v >= 1-node %v", four.Makespan, one.Makespan)
	}
	if four.MeanTurnaround >= one.MeanTurnaround {
		t.Fatal("more nodes must cut turnaround under load")
	}
	if four.TotalImages != one.TotalImages {
		t.Fatal("image totals must match")
	}
}

func TestClusterPowerLensBeatsOndemand(t *testing.T) {
	// The §5 claim at fleet scale: PowerLens plans cut cluster energy vs
	// the nodes' built-in governor.
	p := hw.TX2()
	jobs := testJobs(10)

	// Oracle single-level plans per model (cheap stand-in for a full
	// deployment in this unit test).
	plans := map[string]*governor.FrequencyPlan{}
	for _, name := range models.Names() {
		g := models.MustBuild(name)
		lvl, _ := sim.NewCostTable(p, g).OptimalSegmentLevel(0, len(g.Layers)-1)
		plans[g.Name] = &governor.FrequencyPlan{Model: g.Name, Points: map[int]int{0: lvl}}
	}
	pl, err := Run(Config{Nodes: 2, Platform: p, NewCtl: func() sim.Controller {
		return governor.NewMultiPlan(plans)
	}}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	bim, err := Run(Config{Nodes: 2, Platform: p, NewCtl: func() sim.Controller {
		return governor.NewOndemand()
	}}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if pl.TotalEnergyJ >= bim.TotalEnergyJ {
		t.Fatalf("cluster PowerLens energy %.1f >= BiM %.1f", pl.TotalEnergyJ, bim.TotalEnergyJ)
	}
	if pl.EE() <= bim.EE() {
		t.Fatalf("cluster PowerLens EE %.4f <= BiM %.4f", pl.EE(), bim.EE())
	}
}

func TestRandomJobsDeterministic(t *testing.T) {
	a := RandomJobs(8, time.Second, 3)
	b := RandomJobs(8, time.Second, 3)
	for i := range a {
		if a[i].Graph.Name != b[i].Graph.Name || a[i].Images != b[i].Images || a[i].Arrival != b[i].Arrival {
			t.Fatal("same seed must reproduce the same trace")
		}
	}
	// Arrivals must be non-decreasing.
	for i := 1; i < len(a); i++ {
		if a[i].Arrival < a[i-1].Arrival {
			t.Fatal("arrivals must be sorted")
		}
	}
	// Image counts in [25, 100].
	for _, j := range a {
		if j.Images < 25 || j.Images > 100 {
			t.Fatalf("images = %d", j.Images)
		}
	}
}

func TestClusterBatchExtension(t *testing.T) {
	p := hw.TX2()
	jobs := testJobs(6)
	plain, err := Run(Config{Nodes: 2, Platform: p, NewCtl: staticFactory(7)}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Run(Config{Nodes: 2, Platform: p, NewCtl: staticFactory(7), Batch: 8}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Batching rounds image counts up, so compare EE, which must improve.
	if batched.EE() <= plain.EE() {
		t.Fatalf("batched cluster EE %.4f <= plain %.4f", batched.EE(), plain.EE())
	}
}
