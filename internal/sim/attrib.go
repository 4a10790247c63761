package sim

import (
	"time"

	"powerlens/internal/graph"
	"powerlens/internal/obs/ledger"
)

// DefaultQoSBudget is the allowed per-pass GPU-time degradation versus the
// max-frequency reference before a pass counts as a QoS violation (§4.2's
// latency-constraint framing): a pass violates when its GPU busy time exceeds
// ref × (1 + budget). The reference excludes host time so a host-bound tail
// never charges the DVFS policy with a violation it did not cause.
const DefaultQoSBudget = 0.05

// BlockResolver is implemented by controllers that carry a power-block
// structure (PowerLens frequency plans): it maps a layer to the 0-based block
// it belongs to, so attribution cells can be keyed on the plan's blocks. The
// executor treats controllers without it as a single block 0.
type BlockResolver interface {
	BlockIndex(g *graph.Graph, layerID int) int
}

// attribReset prepares the per-run attribution scratch.
func (e *Executor) attribReset() {
	e.passes, e.qosViolations = 0, 0
	e.attrib = e.TrackLevels || e.Ledger != nil || e.SLO != nil
	e.blocks, _ = e.Ctl.(BlockResolver)
	if !e.attrib {
		return
	}
	n := e.Platform.NumGPULevels()
	if cap(e.levelEnergy) >= n {
		e.levelEnergy = e.levelEnergy[:n]
		e.levelTime = e.levelTime[:n]
		clear(e.levelEnergy)
		clear(e.levelTime)
	} else {
		e.levelEnergy = make([]float64, n)
		e.levelTime = make([]time.Duration, n)
	}
}

// noteCell attributes one executed layer to its (block, level) cell: into
// the task's staged cells when a ledger is attached, and into the pass being
// recorded as a flow summary whether or not one is — the summary may later
// replay on an executor that carries a ledger.
func (e *Executor) noteCell(g *graph.Graph, layerID int, c *opCost) {
	block := 0
	if e.blocks != nil {
		block = e.blocks.BlockIndex(g, layerID)
	}
	b, l := int32(block), int32(e.gpuLevel)
	if e.Ledger != nil {
		addCell(&e.staged, b, l, 1, c.Time, c.nj)
	}
	if e.rec != nil {
		addCell(&e.rec.cells, b, l, 1, c.Time, c.nj)
	}
}

// addCell folds ops executions totalling busy and energyNJ into the (block,
// level) cell of *cells, appending the cell on first touch. Cell state is
// integral, so folding N deltas equals applying them one by one, in any
// order. The scan runs newest first: consecutive layers mostly land in the
// cell touched last.
func addCell(cells *[]cellDelta, block, level int32, ops uint64, busy time.Duration, energyNJ uint64) {
	cs := *cells
	for i := len(cs) - 1; i >= 0; i-- {
		c := &cs[i]
		if c.block == block && c.level == level {
			c.ops += ops
			c.busy += busy
			c.energyNJ += energyNJ
			return
		}
	}
	*cells = append(cs, cellDelta{block: block, level: level, ops: ops, busy: busy, energyNJ: energyNJ})
}

// flushCells applies the task's staged cells to the ledger, one AddSegments
// call per (block, level) cell — exactly the per-layer RecordSegment calls
// they aggregate, since cells are integral. Flushing at the end of every
// task keeps each cell's first-touch model name what per-layer recording
// gave it.
func (e *Executor) flushCells(g *graph.Graph) {
	for i := range e.staged {
		c := &e.staged[i]
		k := ledger.Key{Model: graph.Digest(g), Block: c.block, Level: c.level}
		e.Ledger.AddSegments(k, g.Name, c.ops, c.busy, c.energyNJ)
	}
	e.staged = e.staged[:0]
}

// finishPass judges and records one completed inference pass. The violation
// verdict compares the pass's GPU busy time against the max-frequency
// reference ref (the executor costRef, or a flow summary's copy
// of it); wall latency — including host tails — is what the ledger's latency
// sketch and the SLO tracker record.
func (e *Executor) finishPass(g *graph.Graph, ref, passStart time.Duration, passEnergyJ float64, gpuBusy time.Duration) {
	e.passes++
	violated := false
	if ref > 0 {
		budget := e.QoSBudget
		if budget <= 0 {
			budget = DefaultQoSBudget
		}
		violated = gpuBusy > ref+time.Duration(float64(ref)*budget)
	}
	if violated {
		e.qosViolations++
	}
	if e.Ledger == nil && e.SLO == nil {
		return
	}
	now := e.sensor.Now()
	wall := now - passStart
	energy := e.sensor.EnergyJ() - passEnergyJ
	e.Ledger.RecordPass(graph.Digest(g), g.Name, wall, energy, violated)
	if e.SLO != nil {
		deg := 0.0
		if ref > 0 {
			deg = float64(gpuBusy)/float64(ref) - 1
		}
		e.SLO.RecordPass(g.Name, now, wall, deg, energy, violated)
	}
}
