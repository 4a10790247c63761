package dataset

import (
	"path/filepath"
	"testing"

	"powerlens/internal/cluster"
	"powerlens/internal/features"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/sim"
)

func TestDefaultGrid(t *testing.T) {
	grid := DefaultGrid()
	if len(grid) != 8 {
		t.Fatalf("grid size = %d, want 8", len(grid))
	}
	for i, hp := range grid {
		if err := hp.Validate(); err != nil {
			t.Fatalf("grid[%d]: %v", i, err)
		}
	}
}

func TestGenerateSmall(t *testing.T) {
	p := hw.TX2()
	a, b := Generate(p, DefaultConfig(12, 7))
	if len(a.Samples) != 12 {
		t.Fatalf("dataset A samples = %d, want 12", len(a.Samples))
	}
	if len(b.Samples) < 12 {
		t.Fatalf("dataset B samples = %d, want >= one per network", len(b.Samples))
	}
	for _, s := range a.Samples {
		if s.Label < 0 || s.Label >= len(a.Grid) {
			t.Fatalf("A label %d out of grid range", s.Label)
		}
		if len(s.Structural) != features.StructuralDim || len(s.Stats) != features.StatsDim {
			t.Fatal("A feature dims wrong")
		}
	}
	for _, s := range b.Samples {
		if s.Label < 0 || s.Label >= b.NumLevels {
			t.Fatalf("B label %d out of ladder range", s.Label)
		}
	}
	if b.NumLevels != p.NumGPULevels() {
		t.Fatal("B NumLevels mismatch")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := hw.TX2()
	a1, b1 := Generate(p, DefaultConfig(5, 3))
	a2, b2 := Generate(p, DefaultConfig(5, 3))
	if len(a1.Samples) != len(a2.Samples) || len(b1.Samples) != len(b2.Samples) {
		t.Fatal("same seed must generate identical datasets")
	}
	for i := range a1.Samples {
		if a1.Samples[i].Label != a2.Samples[i].Label {
			t.Fatal("A labels diverged")
		}
	}
	for i := range b1.Samples {
		if b1.Samples[i].Label != b2.Samples[i].Label {
			t.Fatal("B labels diverged")
		}
	}
}

func TestBestClusteringBeatsWorstCell(t *testing.T) {
	// The chosen grid cell's oracle energy must be <= every other cell's.
	p := hw.TX2()
	g := models.MustBuild("resnet152")
	grid := DefaultGrid()
	bestCell, view, levels := BestClustering(p, g, grid)
	if bestCell < 0 || view == nil || len(levels) != view.NumBlocks() {
		t.Fatalf("BestClustering returned cell=%d view=%v", bestCell, view)
	}
	_, bestE := OracleLevels(p, g, view)
	for cell := range grid {
		pv, err := cluster.BuildPowerView(g, grid[cell])
		if err != nil {
			t.Fatal(err)
		}
		_, e := OracleLevels(p, g, pv)
		if e < bestE-1e-9 {
			t.Fatalf("cell %d energy %.6f beats chosen %.6f", cell, e, bestE)
		}
	}
}

func TestOracleLevelsMatchSegmentSweep(t *testing.T) {
	p := hw.AGX()
	g := models.MustBuild("resnet34")
	pv := cluster.WholeNetworkView(g)
	levels, energy := OracleLevels(p, g, pv)
	if len(levels) != 1 {
		t.Fatalf("levels = %v", levels)
	}
	want, energies := sim.NewCostTable(p, g).OptimalSegmentLevel(0, len(g.Layers)-1)
	if levels[0] != want {
		t.Fatalf("oracle level %d, sweep says %d", levels[0], want)
	}
	if energy != energies[want] {
		t.Fatalf("single-block view must have no switch penalty: %g vs %g", energy, energies[want])
	}
}

func TestOracleSwitchPenalty(t *testing.T) {
	// A two-block view with different levels must cost more than the sum of
	// block energies (boundary switches).
	p := hw.TX2()
	g := models.MustBuild("vgg19") // conv body + memory-bound FC head
	// Build a view split at the flatten layer.
	split := 0
	for _, l := range g.Layers {
		if l.Kind.String() == "flatten" {
			split = l.ID
			break
		}
	}
	pv := &cluster.PowerView{Model: g.Name, Blocks: []cluster.PowerBlock{
		{StartLayer: 0, EndLayer: split - 1},
		{StartLayer: split, EndLayer: len(g.Layers) - 1},
	}}
	levels, energy := OracleLevels(p, g, pv)
	if levels[0] == levels[1] {
		t.Skip("calibration gives equal levels; switch penalty untestable here")
	}
	var sum float64
	ct := sim.NewCostTable(p, g)
	for i, b := range pv.Blocks {
		_, es := ct.OptimalSegmentLevel(b.StartLayer, b.EndLayer)
		sum += es[levels[i]]
	}
	if energy <= sum {
		t.Fatalf("switch penalty missing: total %.6f <= sum %.6f", energy, sum)
	}
}

func TestVGGHeadPrefersLowFrequency(t *testing.T) {
	// The FC head of VGG-19 is memory-bound: its oracle level must be far
	// below the conv body's — the dispersion PowerLens exploits.
	p := hw.TX2()
	g := models.MustBuild("vgg19")
	split := 0
	for _, l := range g.Layers {
		if l.Kind.String() == "flatten" {
			split = l.ID
			break
		}
	}
	ct := sim.NewCostTable(p, g)
	bodyLvl, _ := ct.OptimalSegmentLevel(0, split-1)
	headLvl, _ := ct.OptimalSegmentLevel(split, len(g.Layers)-1)
	if headLvl >= bodyLvl {
		t.Fatalf("head level %d must be below body level %d", headLvl, bodyLvl)
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	p := hw.TX2()
	a, b := Generate(p, DefaultConfig(3, 9))
	path := filepath.Join(t.TempDir(), "ds.json")
	if err := Save(path, p.Name, a, b); err != nil {
		t.Fatal(err)
	}
	plat, a2, b2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if plat != p.Name {
		t.Fatalf("platform = %q", plat)
	}
	if len(a2.Samples) != len(a.Samples) || len(b2.Samples) != len(b.Samples) {
		t.Fatal("roundtrip changed sample counts")
	}
	if a2.Samples[0].Label != a.Samples[0].Label {
		t.Fatal("roundtrip changed labels")
	}
	if len(a2.Grid) != len(a.Grid) {
		t.Fatal("roundtrip lost grid")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, _, _, err := Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestDatasetBLabelDiversity(t *testing.T) {
	// Across a few dozen random networks the oracle must produce more than
	// one distinct frequency label — otherwise the decision model task is
	// degenerate.
	p := hw.TX2()
	_, b := Generate(p, DefaultConfig(25, 13))
	seen := map[int]bool{}
	for _, s := range b.Samples {
		seen[s.Label] = true
	}
	if len(seen) < 2 {
		t.Fatalf("only %d distinct frequency labels in dataset B", len(seen))
	}
}
