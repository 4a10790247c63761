package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/obs/ledger"
)

// refOpCosts returns the reference cost of every layer of g at every level
// of p for the given batch: GPUOpCost of the layer's batched work at the
// level's frequency, zero for input layers.
func refOpCosts(p *hw.Platform, g *graph.Graph, batch int) [][]hw.OpCost {
	want := make([][]hw.OpCost, p.NumGPULevels())
	for lvl, f := range p.GPUFreqsHz {
		want[lvl] = make([]hw.OpCost, len(g.Layers))
		for id, l := range g.Layers {
			if l.Kind != graph.OpInput {
				flops, bytes := l.BatchCost(batch)
				want[lvl][id] = p.GPUOpCost(flops, bytes, f)
			}
		}
	}
	return want
}

// refSegment sums the reference costs of layers [s[0], s[1]] at level lvl in
// ascending layer order from +0.0.
func refSegment(want [][]hw.OpCost, s [2]int, lvl int) (time.Duration, float64) {
	var t time.Duration
	e := 0.0
	for id := s[0]; id <= s[1]; id++ {
		t += want[lvl][id].Time
		e += want[lvl][id].EnergyJ
	}
	return t, e
}

// testSegments returns the whole graph, its first and last layer, and a
// dozen seeded random segments of g.
func testSegments(g *graph.Graph) [][2]int {
	n := len(g.Layers) - 1
	rng := rand.New(rand.NewSource(7))
	segs := [][2]int{{0, n}, {0, 0}, {n, n}}
	for i := 0; i < 12; i++ {
		a, b := rng.Intn(n+1), rng.Intn(n+1)
		if a > b {
			a, b = b, a
		}
		segs = append(segs, [2]int{a, b})
	}
	return segs
}

// newBatchTable returns the cost table of g on p at the given batch.
func newBatchTable(p *hw.Platform, g *graph.Graph, batch int) *CostTable {
	ct := NewCostTable(p, g)
	if batch != 1 {
		ct.reset(p, g, batch)
	}
	return ct
}

// TestCostRowsMatchGPUOpCost pins the cost table's rows to the cost model
// exactly, on every zoo model at batch 1 and 4 on both platforms: every row
// entry is GPUOpCost of the layer's batched work at the level's frequency,
// plus the ledger nanojoules of one execution (inputs zero), and the
// executor's QoS reference is the whole-graph sum at the top level.
func TestCostRowsMatchGPUOpCost(t *testing.T) {
	for _, p := range hw.Platforms() {
		top := p.NumGPULevels() - 1
		for _, name := range models.Names() {
			g := models.MustBuild(name)
			for _, batch := range []int{1, 4} {
				ct := newBatchTable(p, g, batch)
				want := refOpCosts(p, g, batch)
				for lvl := range p.GPUFreqsHz {
					row := ct.row(lvl)
					if len(row) != len(g.Layers) {
						t.Fatalf("%s/%s batch %d level %d: row has %d entries", p.Name, name, batch, lvl, len(row))
					}
					for id, got := range row {
						w := want[lvl][id]
						if got != (opCost{OpCost: w, nj: ledger.Quantize(w.PowerW * w.Time.Seconds())}) {
							t.Fatalf("%s/%s batch %d level %d layer %d: entry %+v, want %+v",
								p.Name, name, batch, lvl, id, got, w)
						}
						if ct.OpCost(id, lvl) != w {
							t.Fatalf("%s/%s batch %d level %d layer %d: OpCost differs from its row", p.Name, name, batch, lvl, id)
						}
					}
				}

				ex := NewExecutor(p, &fixedCtl{level: 0})
				ex.costTable(g, batch)
				if ref, _ := refSegment(want, [2]int{0, len(g.Layers) - 1}, top); ex.costRef != ref {
					t.Fatalf("%s/%s batch %d: costRef %v, want %v", p.Name, name, batch, ex.costRef, ref)
				}
			}
		}
	}
}

// The cost table's segment queries must be indistinguishable from summing
// the per-layer costs directly: same times, same energies, same optimal
// levels, bit for bit, and a repeated query is served from the memo. The
// dataset goldens depend on it.
func TestCostTableMatchesSegmentCost(t *testing.T) {
	for _, p := range hw.Platforms() {
		top := p.NumGPULevels() - 1
		for _, name := range models.Names() {
			g := models.MustBuild(name)
			segs := testSegments(g)
			for _, batch := range []int{1, 4} {
				ct := newBatchTable(p, g, batch)
				want := refOpCosts(p, g, batch)
				for _, s := range segs {
					wantBest := 0
					wantEs := make([]float64, top+1)
					scores := make([]float64, top+1)
					for lvl := range p.GPUFreqsHz {
						wantT, wantE := refSegment(want, s, lvl)
						gotT, gotE := ct.SegmentCost(s[0], s[1], lvl)
						if gotT != wantT || gotE != wantE {
							t.Fatalf("%s/%s batch %d seg %v lvl %d: table (%v, %v), reference (%v, %v)",
								p.Name, name, batch, s, lvl, gotT, gotE, wantT, wantE)
						}
						wantEs[lvl] = wantE
						scores[lvl] = wantE * math.Pow(wantT.Seconds(), PerfWeight)
						if scores[lvl] < scores[wantBest] {
							wantBest = lvl
						}
					}
					gotBest, gotEs := ct.OptimalSegmentLevel(s[0], s[1])
					if gotBest != wantBest {
						t.Fatalf("%s/%s batch %d seg %v: best %d, sweep %d", p.Name, name, batch, s, gotBest, wantBest)
					}
					for lvl := range wantEs {
						if gotEs[lvl] != wantEs[lvl] {
							t.Fatalf("%s/%s batch %d seg %v lvl %d: energy %v, sweep %v",
								p.Name, name, batch, s, lvl, gotEs[lvl], wantEs[lvl])
						}
					}
				}

				// Poison one memo entry: the repeat query must return it.
				key := segKey{segs[0][0], segs[0][1], 0}
				ct.seg[key] = segCost{t: -1, e: -1}
				if gotT, gotE := ct.SegmentCost(key.start, key.end, key.level); gotT != -1 || gotE != -1 {
					t.Fatalf("%s/%s batch %d: repeat segment query missed the memo", p.Name, name, batch)
				}
			}
		}
	}
}

// A cost table prices its graph on the platform it was built (or reset) for:
// one row per ladder level of that platform, each entry that platform's
// GPUOpCost, and a reset onto another platform reprices every row.
func TestCostTablePlatform(t *testing.T) {
	g := models.MustBuild("resnet18")
	s := [2]int{0, len(g.Layers) - 1}
	ps := hw.Platforms()
	if len(ps) < 2 {
		t.Fatalf("need two platforms, have %d", len(ps))
	}
	ct := NewCostTable(ps[0], g)
	for i, p := range ps {
		if i > 0 {
			ct.reset(p, g, 1)
		}
		if len(ct.rows) != p.NumGPULevels() {
			t.Fatalf("%s: table has %d levels, platform %d", p.Name, len(ct.rows), p.NumGPULevels())
		}
		want := refOpCosts(p, g, 1)
		for lvl := range p.GPUFreqsHz {
			wantT, wantE := refSegment(want, s, lvl)
			if gotT, gotE := ct.SegmentCost(s[0], s[1], lvl); gotT != wantT || gotE != wantE {
				t.Fatalf("%s lvl %d: table (%v, %v), platform (%v, %v)", p.Name, lvl, gotT, gotE, wantT, wantE)
			}
		}
	}
	top0, top1 := ps[0].NumGPULevels()-1, ps[1].NumGPULevels()-1
	t0, _ := NewCostTable(ps[0], g).SegmentCost(s[0], s[1], top0)
	t1, _ := NewCostTable(ps[1], g).SegmentCost(s[0], s[1], top1)
	if t0 == t1 {
		t.Fatalf("%s and %s price resnet18 identically (%v): the table ignores its platform", ps[0].Name, ps[1].Name, t0)
	}
}
