package sim

import (
	"testing"
	"time"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/models"
)

func TestSegmentCostBatchAmortizesWeights(t *testing.T) {
	p := hw.TX2()
	g := models.VGG19() // weight-heavy FC tail
	n := len(g.Layers) - 1
	var ct CostTable
	ct.reset(p, g, 1)
	t1, e1 := ct.SegmentCost(0, n, 8)
	ct.reset(p, g, 8)
	t8, e8 := ct.SegmentCost(0, n, 8)

	// Batch-8 must cost less than 8x batch-1 in both time and energy
	// (weight traffic amortizes), but more than 1x.
	if e8 >= 8*e1 {
		t.Fatalf("batch energy %.3f >= 8x single %.3f: no amortization", e8, 8*e1)
	}
	if e8 <= e1 {
		t.Fatal("batch-8 must cost more total energy than batch-1")
	}
	if t8 >= 8*t1 || t8 <= t1 {
		t.Fatalf("batch time %v outside (1x, 8x) of %v", t8, t1)
	}
	// Per-image EE must improve with batch.
	if 8/e8 <= 1/e1 {
		t.Fatalf("per-image EE did not improve: %.4f vs %.4f", 8/e8, 1/e1)
	}
}

// At batch 1 the cost table is the unbatched closed form: each layer's
// GPUOpCost of its own FLOPs and memory bytes, summed in layer order. A table
// reset from batch 8 back to batch 1 must agree with it too.
func TestSegmentCostBatchOneMatchesSegmentCost(t *testing.T) {
	p := hw.AGX()
	g := models.ResNet34()
	n := len(g.Layers) - 1
	const lvl = 5
	f := p.GPUFreqsHz[lvl]
	var t1 time.Duration
	e1 := 0.0
	for _, l := range g.Layers {
		if l.Kind == graph.OpInput {
			continue
		}
		c := p.GPUOpCost(l.FLOPs(), l.MemBytes(), f)
		t1 += c.Time
		e1 += c.EnergyJ
	}
	ct := NewCostTable(p, g)
	if tb, eb := ct.SegmentCost(0, n, lvl); t1 != tb || e1 != eb {
		t.Fatalf("batch=1 must equal unbatched: %v/%v vs %v/%v", t1, e1, tb, eb)
	}
	ct.reset(p, g, 8)
	ct.SegmentCost(0, n, lvl)
	ct.reset(p, g, 1)
	if tb, eb := ct.SegmentCost(0, n, lvl); t1 != tb || e1 != eb {
		t.Fatalf("batch=1 after a batch-8 reset must equal unbatched: %v/%v vs %v/%v", t1, e1, tb, eb)
	}
}

func TestOptimalBatchPrefersLargerBatches(t *testing.T) {
	p := hw.TX2()
	g := models.VGG19()
	best, sweep := OptimalBatch(p, g, 16, 0)
	if len(sweep) == 0 {
		t.Fatal("empty sweep")
	}
	if best.Batch < 2 {
		t.Fatalf("weight-heavy net should prefer batch > 1, got %d", best.Batch)
	}
	// EE must be monotone non-decreasing along the unconstrained sweep for a
	// weight-heavy network.
	for i := 1; i < len(sweep); i++ {
		if sweep[i].EE < sweep[i-1].EE*0.999 {
			t.Fatalf("EE dropped along batch sweep: %+v", sweep)
		}
	}
}

func TestOptimalBatchLatencyBudget(t *testing.T) {
	p := hw.TX2()
	g := models.VGG19()
	unbounded, _ := OptimalBatch(p, g, 16, 0)
	budget := unbounded.Latency / 2
	bounded, sweep := OptimalBatch(p, g, 16, budget)
	if bounded.Latency > budget {
		t.Fatalf("budgeted point latency %v exceeds budget %v", bounded.Latency, budget)
	}
	for _, bp := range sweep {
		if bp.Latency > budget {
			t.Fatalf("sweep point %+v violates budget", bp)
		}
	}
	if bounded.EE > unbounded.EE {
		t.Fatal("constrained optimum cannot beat unconstrained")
	}
}

func TestOptimalBatchImpossibleBudget(t *testing.T) {
	p := hw.TX2()
	g := models.VGG19()
	best, sweep := OptimalBatch(p, g, 8, time.Nanosecond)
	if len(sweep) != 0 {
		t.Fatalf("nanosecond budget admits points: %+v", sweep)
	}
	if best.Batch != 0 {
		t.Fatalf("best should be zero-valued, got %+v", best)
	}
}

func TestExecutorBatch(t *testing.T) {
	p := hw.TX2()
	g := models.VGG19()
	single := NewExecutor(p, &fixedCtl{level: 8})
	r1 := single.RunTask(g, 16)

	batched := NewExecutor(p, &fixedCtl{level: 8})
	batched.Batch = 8
	r8 := batched.RunTask(g, 16)

	if r8.Images != 16 || r1.Images != 16 {
		t.Fatalf("image counts: %d / %d", r1.Images, r8.Images)
	}
	// Batched execution of a weight-heavy net must be more energy
	// efficient and faster overall.
	if r8.EE() <= r1.EE() {
		t.Fatalf("batched EE %.4f <= single EE %.4f", r8.EE(), r1.EE())
	}
	if r8.Time >= r1.Time {
		t.Fatalf("batched time %v >= single %v", r8.Time, r1.Time)
	}
}

func TestExecutorBatchRoundsUp(t *testing.T) {
	p := hw.TX2()
	e := NewExecutor(p, &fixedCtl{level: 6})
	e.Batch = 8
	r := e.RunTask(models.AlexNet(), 10) // 10 images, batch 8 → 2 passes = 16
	if r.Images != 16 {
		t.Fatalf("images = %d, want 16 (rounded to batch multiple)", r.Images)
	}
}

func TestBatchCostLayer(t *testing.T) {
	g := models.VGG19()
	var fc *struct {
		flops1, bytes1, flops4, bytes4 int64
	}
	for _, l := range g.Layers {
		if l.Kind.String() == "linear" && l.Attrs.InFeatures > 10000 {
			f1, b1 := l.BatchCost(1)
			f4, b4 := l.BatchCost(4)
			fc = &struct{ flops1, bytes1, flops4, bytes4 int64 }{f1, b1, f4, b4}
			break
		}
	}
	if fc == nil {
		t.Fatal("no big FC layer found")
	}
	if fc.flops4 != 4*fc.flops1 {
		t.Fatal("FLOPs must scale with batch")
	}
	if fc.bytes4 >= 4*fc.bytes1 {
		t.Fatal("weight traffic must amortize across the batch")
	}
}
