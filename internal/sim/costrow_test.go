package sim

import (
	"testing"
	"time"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/obs/ledger"
)

// TestCostRowsMatchGPUOpCost pins the per-level cost rows to the cost model
// exactly: every entry of every ladder level's row holds the GPUOpCost
// fields of that layer's batched work at that frequency, and the ledger
// nanojoules of one execution. The QoS reference equals the sum of the
// per-layer GPUOpCost times at fmax.
func TestCostRowsMatchGPUOpCost(t *testing.T) {
	for _, p := range hw.Platforms() {
		for _, name := range models.Names() {
			g := models.MustBuild(name)
			for _, batch := range []int{1, 4} {
				e := NewExecutor(p, &fixedCtl{level: 0})
				costs := e.opCosts(g, batch)
				var ref time.Duration
				for i, l := range g.Layers {
					if l.Kind == graph.OpInput {
						continue
					}
					flops, bytes := l.BatchCost(batch)
					ref += p.GPUOpCost(flops, bytes, p.MaxGPUFreq()).Time
					if costs[i].flops != flops || costs[i].bytes != bytes {
						t.Fatalf("%s/%s batch %d layer %d: work (%d, %d), want (%d, %d)",
							p.Name, name, batch, i, costs[i].flops, costs[i].bytes, flops, bytes)
					}
				}
				if e.costRef != ref {
					t.Fatalf("%s/%s batch %d: costRef %v, want %v", p.Name, name, batch, e.costRef, ref)
				}
				for lvl, f := range p.GPUFreqsHz {
					row := e.costRow(lvl)
					for i, w := range costs {
						got := row[i]
						if w.skip {
							if got != (opCost{}) {
								t.Fatalf("%s/%s: input layer %d has cost %+v", p.Name, name, i, got)
							}
							continue
						}
						c := p.GPUOpCost(w.flops, w.bytes, f)
						want := opCost{
							time:      c.Time,
							powerW:    c.PowerW,
							computeUt: c.ComputeUt,
							nj:        ledger.Quantize(c.PowerW * c.Time.Seconds()),
						}
						if got != want {
							t.Fatalf("%s/%s batch %d level %d layer %d: row %+v, want %+v",
								p.Name, name, batch, lvl, i, got, want)
						}
					}
				}
			}
		}
	}
}
