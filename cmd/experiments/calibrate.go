package main

// Calibration report: prints, per platform and model, the static frequency
// sweep (energy per image), the fmax→optimum energy ratio (proxy for the
// Table 1 BiM gap), the time penalty at the optimum, and the additional gain
// from per-block frequency assignment over the best single frequency (proxy
// for the P-N ablation gap). Used to tune hw constants; kept as a
// diagnostics subcommand.

import (
	"fmt"
	"io"

	"powerlens/internal/cluster"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/sim"
)

// runCalibrate writes the report to w; verbose adds each model's per-block
// oracle levels and energies.
func runCalibrate(w io.Writer, verbose bool) {
	for _, p := range hw.Platforms() {
		fmt.Fprintf(w, "=== %s ===\n", p.Name)
		top := p.NumGPULevels() - 1
		for _, name := range models.Names() {
			g := models.MustBuild(name)
			ct := sim.NewCostTable(p, g)
			n := len(g.Layers) - 1

			// Whole-network static sweep.
			bestLvl, energies := ct.OptimalSegmentLevel(0, n)
			eMax := energies[top]
			eOpt := energies[bestLvl]
			tOpt, _ := ct.SegmentCost(0, n, bestLvl)
			tMax, _ := ct.SegmentCost(0, n, top)

			// Per-block oracle using a default clustering.
			a, l := cluster.DefaultDistanceParams()
			hp := cluster.Hyperparams{Eps: 0.30, MinPts: 4, Alpha: a, Lambda: l}
			pv, err := cluster.BuildPowerView(g, hp)
			var eBlocks float64
			var tBlocks float64
			nBlocks := 0
			if err == nil {
				nBlocks = pv.NumBlocks()
				detail := ""
				for _, b := range pv.Blocks {
					lvl, es := ct.OptimalSegmentLevel(b.StartLayer, b.EndLayer)
					eBlocks += es[lvl]
					bt, _ := ct.SegmentCost(b.StartLayer, b.EndLayer, lvl)
					tBlocks += bt.Seconds()
					detail += fmt.Sprintf(" [%d-%d lvl=%d E=%.3f]", b.StartLayer, b.EndLayer, lvl, es[lvl])
				}
				if verbose {
					fmt.Fprintf(w, "  blocks:%s\n", detail)
				}
			}
			fmt.Fprintf(w, "%-15s optLvl=%2d/%d  E(fmax)/E(opt)=%.3f  t(opt)/t(fmax)=%.2f  blocks=%d  E(opt)/E(blocks)=%.3f  t(blocks)/t(fmax)=%.2f\n",
				name, bestLvl, top, eMax/eOpt,
				tOpt.Seconds()/tMax.Seconds(), nBlocks, eOpt/eBlocks,
				tBlocks/tMax.Seconds())
		}
	}
}
