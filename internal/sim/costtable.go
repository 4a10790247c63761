package sim

import (
	"math"
	"slices"
	"time"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/obs/ledger"
)

// PerfWeight is the θ exponent of the per-block target objective E·t^θ.
// θ=0 minimizes pure energy (equivalently maximizes the paper's EE metric,
// matching §2.2's oracle: "select test data that achieves the optimal energy
// efficiency"); θ=1 is the energy-delay product. The default is 0 so block
// objectives compose consistently — the sum of per-block energy minima is
// the plan-level energy minimum. BenchmarkAblationPerfWeight explores θ>0,
// which trades energy for latency on compute-bound blocks (the §2.1.4
// narrative of raising frequency for computation-intensive blocks).
const PerfWeight = 0.0

// CostTable is the one place outside internal/hw that turns a graph's layers
// into ladder-level costs. It covers one (platform, graph, batch): row lvl
// holds every layer's hw.GPUOpCost at p.GPUFreqsHz[lvl] for its batched work
// (per-layer FLOPs and activation traffic scale with the batch, weight
// traffic does not), filled the first time the level is used. The executor
// steps through the rows op by op; the dataset oracle sweep, the plan guard,
// the audit probes and the diagnostics read segment sums from them.
//
// A segment's time and energy are summed per layer in ascending layer-ID
// order from +0.0 (input layers contribute exact zeros), never rearranged
// into prefix-sum differences, so every consumer sees the same bits for the
// same segment. Segment queries are memoized by (startID, endID, level):
// the oracle sweep meets the same blocks in many grid cells.
//
// A CostTable is not safe for concurrent use.
type CostTable struct {
	p     *hw.Platform
	g     *graph.Graph
	batch int

	rows   [][]opCost // [level][layerID]; empty until the level is used
	seg    map[segKey]segCost
	scores []float64 // OptimalSegmentLevel scratch
}

// opCost is one layer's cost at one ladder level: the GPUOpCost result and
// the energy of that one execution in the ledger's nanojoules (quantized per
// event, exactly as the ledger would). OpInput entries stay zero.
type opCost struct {
	hw.OpCost
	nj uint64
}

type segKey struct{ start, end, level int }

type segCost struct {
	t time.Duration
	e float64
}

// NewCostTable returns the batch-1 cost table of g on p.
func NewCostTable(p *hw.Platform, g *graph.Graph) *CostTable {
	ct := &CostTable{}
	ct.reset(p, g, 1)
	return ct
}

// reset retargets the table at (p, g, batch), emptying every row and the
// segment memo but keeping their storage, so an executor that switches
// graphs allocates nothing once the storage has grown.
func (ct *CostTable) reset(p *hw.Platform, g *graph.Graph, batch int) {
	ct.p, ct.g, ct.batch = p, g, batch
	if levels := p.NumGPULevels(); len(ct.rows) != levels {
		ct.rows = make([][]opCost, levels)
	}
	for lvl := range ct.rows {
		ct.rows[lvl] = ct.rows[lvl][:0]
	}
	clear(ct.seg)
}

// row returns every layer's cost at ladder level lvl, filling the row on
// first use: one GPUOpCost per (layer, batch, level).
func (ct *CostTable) row(lvl int) []opCost {
	n := len(ct.g.Layers)
	row := ct.rows[lvl]
	if len(row) == n {
		return row
	}
	row = slices.Grow(row, n)[:n]
	f := ct.p.GPUFreqsHz[lvl]
	for id, l := range ct.g.Layers {
		if l.Kind == graph.OpInput {
			row[id] = opCost{}
			continue
		}
		flops, bytes := l.BatchCost(ct.batch)
		c := ct.p.GPUOpCost(flops, bytes, f)
		row[id] = opCost{OpCost: c, nj: ledger.Quantize(c.PowerW * c.Time.Seconds())}
	}
	ct.rows[lvl] = row
	return row
}

// OpCost returns layer id's cost at ladder level lvl: exactly
// p.GPUOpCost of its batched work at p.GPUFreqsHz[lvl] (zero for input
// layers).
func (ct *CostTable) OpCost(id, lvl int) hw.OpCost { return ct.row(lvl)[id].OpCost }

// segment sums layers [startID, endID] at level lvl without the memo.
func (ct *CostTable) segment(startID, endID, lvl int) (time.Duration, float64) {
	var t time.Duration
	var e float64
	row := ct.row(lvl)
	for id := startID; id <= endID; id++ {
		t += row[id].Time
		e += row[id].EnergyJ
	}
	return t, e
}

// SegmentCost returns the time and energy of executing layers [startID,
// endID] at ladder level lvl.
func (ct *CostTable) SegmentCost(startID, endID, lvl int) (time.Duration, float64) {
	key := segKey{startID, endID, lvl}
	if c, ok := ct.seg[key]; ok {
		return c.t, c.e
	}
	t, e := ct.segment(startID, endID, lvl)
	if ct.seg == nil {
		ct.seg = make(map[segKey]segCost)
	}
	ct.seg[key] = segCost{t, e}
	return t, e
}

// OptimalSegmentLevel sweeps the whole GPU ladder and returns the level that
// minimizes the segment's E·t^θ score, along with the per-level energies.
// This is the oracle of §2.2's dataset generation: "each block in the power
// view is deployed at all frequencies to select test data that achieves the
// optimal energy efficiency".
func (ct *CostTable) OptimalSegmentLevel(startID, endID int) (best int, energies []float64) {
	levels := len(ct.rows)
	energies = make([]float64, levels)
	if len(ct.scores) != levels {
		ct.scores = make([]float64, levels)
	}
	scores := ct.scores
	for i := range energies {
		t, e := ct.SegmentCost(startID, endID, i)
		energies[i] = e
		scores[i] = e * math.Pow(t.Seconds(), PerfWeight)
		if scores[i] < scores[best] {
			best = i
		}
	}
	return best, energies
}
