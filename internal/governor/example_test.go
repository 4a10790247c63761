package governor_test

import (
	"fmt"

	"powerlens/internal/governor"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/sim"
)

// Run a model under a preset PowerLens plan and under the built-in
// ondemand governor (BiM), comparing energy.
func ExamplePowerLens() {
	p := hw.TX2()
	g := models.MustBuild("resnet34")

	// A plan normally comes from core.Framework.Analyze; here we preset a
	// single mid-ladder level for the whole network.
	lvl, _ := sim.NewCostTable(p, g).OptimalSegmentLevel(0, len(g.Layers)-1)
	plan := &governor.FrequencyPlan{Model: g.Name, Points: map[int]int{0: lvl}}

	pl := sim.NewExecutor(p, governor.NewPowerLens(plan)).RunTask(g, 10)
	bim := sim.NewExecutor(p, governor.NewOndemand()).RunTask(g, 10)

	fmt.Println("PowerLens saves energy:", pl.EnergyJ < bim.EnergyJ)
	fmt.Println("BiM is faster:", bim.Time < pl.Time)
	// Output:
	// PowerLens saves energy: true
	// BiM is faster: true
}

// The coordinated extension also presets the host CPU level.
func ExamplePowerLensCG() {
	p := hw.TX2()
	g := models.MustBuild("resnet34")
	plan := &governor.FrequencyPlan{Model: g.Name, Points: map[int]int{0: 6}}
	ctl := governor.NewPowerLensCG(p, g, plan)
	ctl.Reset(p)

	fmt.Println("CPU level preset below top:", ctl.CPULevel() < len(p.CPUFreqsHz)-1)
	// Output:
	// CPU level preset below top: true
}
