package sim_test

import (
	"fmt"

	"powerlens/internal/governor"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/sim"
)

// Run a model at a fixed frequency level and read the paper's EE metric.
func ExampleExecutor_RunTask() {
	p := hw.TX2()
	g := models.MustBuild("resnet34")
	e := sim.NewExecutor(p, governor.NewStatic(6))
	r := e.RunTask(g, 10)

	fmt.Println("images:", r.Images)
	fmt.Println("EE positive:", r.EE() > 0)
	fmt.Println("energy = power x time:", r.EnergyJ > 0 && r.AvgPowerW() > 0)
	// Output:
	// images: 10
	// EE positive: true
	// energy = power x time: true
}

// Sweep a whole network over the ladder to find its oracle level.
func ExampleCostTable_OptimalSegmentLevel() {
	p := hw.TX2()
	g := models.MustBuild("resnet152")
	lvl, energies := sim.NewCostTable(p, g).OptimalSegmentLevel(0, len(g.Layers)-1)

	fmt.Println("interior optimum:", lvl > 0 && lvl < p.NumGPULevels()-1)
	fmt.Println("fmax wasteful:", energies[p.NumGPULevels()-1] > energies[lvl])
	// Output:
	// interior optimum: true
	// fmax wasteful: true
}

// Co-optimize batch size and frequency (the §5 batching extension).
func ExampleOptimalBatch() {
	p := hw.TX2()
	g := models.MustBuild("vgg19")
	best, _ := sim.OptimalBatch(p, g, 8, 0)

	fmt.Println("batch:", best.Batch)
	fmt.Println("beats batch-1:", best.EE > 0)
	// Output:
	// batch: 8
	// beats batch-1: true
}
