// Package dataset implements the §2.2 dataset generator. A random-DNN
// generator produces networks; each is clustered under a grid of candidate
// hyperparameters; every resulting power block is "deployed" at all GPU
// frequencies of the target platform (the oracle sweep) to find its
// energy-optimal level. The sweep labels two datasets:
//
//   - Dataset A: whole-network global features → the grid cell (ε, minPts)
//     whose power view achieves the best total energy, including DVFS switch
//     costs. Trains the clustering hyperparameter prediction model (Fig. 3).
//   - Dataset B: per-block global features → the block's optimal frequency
//     level. Trains the target frequency decision model (Fig. 4).
//
// The paper generates 8 000 networks yielding 31 242 block samples; tests
// use scaled-down counts, cmd/datasetgen regenerates the full scale.
package dataset

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"powerlens/internal/cluster"
	"powerlens/internal/features"
	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/nn"
	"powerlens/internal/sim"
)

// Config controls dataset generation.
type Config struct {
	NumNetworks int
	Seed        int64
	Grid        []cluster.Hyperparams
	GenCfg      models.GeneratorConfig

	// Workers caps the generation worker pool (0 = GOMAXPROCS). Results are
	// identical for any worker count.
	Workers int
}

// DefaultGrid returns the candidate (ε, minPts) grid: 4 radii × 2 densities
// = 8 classes for the hyperparameter model. Keeping the cells few and
// well-separated keeps Dataset A's classes distinct and learnable.
func DefaultGrid() []cluster.Hyperparams {
	alpha, lambda := cluster.DefaultDistanceParams()
	var grid []cluster.Hyperparams
	for _, eps := range []float64{0.15, 0.22, 0.30, 0.40} {
		for _, minPts := range []int{2, 8} {
			grid = append(grid, cluster.Hyperparams{
				Eps: eps, MinPts: minPts, Alpha: alpha, Lambda: lambda,
			})
		}
	}
	return grid
}

// DefaultConfig returns a test-scale configuration.
func DefaultConfig(numNetworks int, seed int64) Config {
	return Config{
		NumNetworks: numNetworks,
		Seed:        seed,
		Grid:        DefaultGrid(),
		GenCfg:      models.DefaultGeneratorConfig(),
	}
}

// DatasetA holds hyperparameter-model training samples.
type DatasetA struct {
	Samples []nn.Sample
	Grid    []cluster.Hyperparams
}

// DatasetB holds decision-model training samples.
type DatasetB struct {
	Samples   []nn.Sample
	NumLevels int
}

// netResult is one network's contribution to the datasets. Checkpoint
// shards serialize it (see checkpoint.go), so restored results must equal
// freshly computed ones bit-for-bit — which they do, because computeNet is a
// pure function of (cfg, i).
type netResult struct {
	aSample  nn.Sample
	bSamples []nn.Sample
	ok       bool
}

// computeNet generates and sweeps network i: the per-network seed derives
// from cfg.Seed alone, so the result is deterministic and independent of
// scheduling, worker count, and resume history.
func computeNet(p *hw.Platform, cfg Config, order []int, sc *cluster.Scratch, i int) netResult {
	rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i)))
	g := models.RandomDNN(rng, cfg.GenCfg, i)
	bestCell, view, levels := bestClustering(p, g, cfg.Grid, order, sc)
	if bestCell < 0 {
		return netResult{}
	}
	gl := features.ExtractGlobal(g)
	r := netResult{ok: true, aSample: nn.Sample{
		Structural: gl.Structural, Stats: gl.Stats, Label: bestCell,
	}}
	for bi, b := range view.Blocks {
		bg := features.ExtractBlockGlobal(g, b.StartLayer, b.EndLayer)
		r.bSamples = append(r.bSamples, nn.Sample{
			Structural: bg.Structural, Stats: bg.Stats, Label: levels[bi],
		})
	}
	return r
}

// clampWorkers resolves a worker-count knob against the job size.
func clampWorkers(workers, jobs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// assemble folds per-network results (index order) into the two datasets.
func assemble(p *hw.Platform, cfg Config, results []netResult) (*DatasetA, *DatasetB) {
	dsA := &DatasetA{Grid: cfg.Grid}
	dsB := &DatasetB{NumLevels: p.NumGPULevels()}
	for _, r := range results {
		if !r.ok {
			continue
		}
		dsA.Samples = append(dsA.Samples, r.aSample)
		dsB.Samples = append(dsB.Samples, r.bSamples...)
	}
	return dsA, dsB
}

// Generate produces both datasets for one platform. Networks are processed
// by a worker pool (the grid sweep per network is independent), with
// per-network seeds derived from cfg.Seed so results are deterministic and
// independent of scheduling.
func Generate(p *hw.Platform, cfg Config) (*DatasetA, *DatasetB) {
	results := make([]netResult, cfg.NumNetworks)
	workers := clampWorkers(cfg.Workers, cfg.NumNetworks)
	// The canonical tie-break order depends only on the shared grid: compute
	// it once here instead of once per network inside the sweep.
	order := canonicalOrder(cfg.Grid)
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc cluster.Scratch
			for i := range idx {
				results[i] = computeNet(p, cfg, order, &sc, i)
			}
		}()
	}
	for i := 0; i < cfg.NumNetworks; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()

	return assemble(p, cfg, results)
}

// BestClustering sweeps the hyperparameter grid over g, evaluating each
// candidate power view by its oracle energy (per-block optimal frequencies
// plus switch costs), and returns the winning grid index, its power view,
// and the per-block optimal levels. Returns bestCell == -1 when the graph
// has no operators to cluster.
func BestClustering(p *hw.Platform, g *graph.Graph, grid []cluster.Hyperparams) (bestCell int, view *cluster.PowerView, levels []int) {
	var sc cluster.Scratch
	return bestClustering(p, g, grid, canonicalOrder(grid), &sc)
}

// bestClustering is BestClustering's worker-pool form: the canonical
// tie-break order is hoisted to the caller (it depends only on the grid),
// clustering scratch is reused across cells and networks, and the oracle
// sweep of every cell runs over one per-network cost table.
func bestClustering(p *hw.Platform, g *graph.Graph, grid []cluster.Hyperparams, order []int, sc *cluster.Scratch) (bestCell int, view *cluster.PowerView, levels []int) {
	x, ids := features.ScaledDepthwise(g)
	if x.Rows == 0 {
		return -1, nil, nil
	}
	alpha, lambda := grid[0].Alpha, grid[0].Lambda
	d := cluster.BlendedDistance(x, alpha, lambda)

	ct := sim.NewCostTable(p, g)
	type candidate struct {
		view   *cluster.PowerView
		levels []int
		energy float64
	}
	cands := make([]candidate, len(grid))
	minE := -1.0
	for cell, hp := range grid {
		blocks := cluster.ClusterPrecomputedScratch(d, hp, sc)
		pv := viewFromRowBlocks(g.Name, blocks, ids)
		lv, energy := oracleLevels(p, pv, ct)
		cands[cell] = candidate{pv, lv, energy}
		if minE < 0 || energy < minE {
			minE = energy
		}
	}
	// Canonical tie-break: energy differences between cells are often within
	// measurement noise, and naive argmin would scatter near-tied labels
	// across cells, making Dataset A unlearnable. Instead, walk the grid in
	// a fixed coarse-to-fine preference order (largest minPts first, then
	// smallest ε) and pick the first cell within 1% of the optimum. Most
	// networks thus share one canonical label; finer cells win only when
	// splitting genuinely pays — exactly the distinction the hyperparameter
	// model is supposed to learn.
	bestCell = -1
	for _, cell := range order {
		if cands[cell].energy <= minE*1.01 {
			bestCell = cell
			break
		}
	}
	if bestCell >= 0 {
		view, levels = cands[bestCell].view, cands[bestCell].levels
	}
	return bestCell, view, levels
}

// canonicalOrder returns grid indices sorted coarse-to-fine: descending
// minPts, then ascending ε, then index (stable for duplicate cells).
func canonicalOrder(grid []cluster.Hyperparams) []int {
	order := make([]int, len(grid))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ga, gb := grid[order[a]], grid[order[b]]
		if ga.MinPts != gb.MinPts {
			return ga.MinPts > gb.MinPts
		}
		return ga.Eps < gb.Eps
	})
	return order
}

// OracleLevels sweeps every block of the view over the full GPU ladder,
// returning each block's energy-optimal level and the view's total energy
// per image including the energy cost of level changes at block boundaries.
func OracleLevels(p *hw.Platform, g *graph.Graph, pv *cluster.PowerView) (levels []int, totalEnergy float64) {
	return oracleLevels(p, pv, sim.NewCostTable(p, g))
}

// oracleLevels is OracleLevels over ct, the view's graph's cost table on p.
func oracleLevels(p *hw.Platform, pv *cluster.PowerView, ct *sim.CostTable) (levels []int, totalEnergy float64) {
	levels = make([]int, len(pv.Blocks))
	for i, b := range pv.Blocks {
		lvl, energies := ct.OptimalSegmentLevel(b.StartLayer, b.EndLayer)
		levels[i] = lvl
		totalEnergy += energies[lvl]
	}
	// Level changes at block boundaries (and re-entry for the next image)
	// each stall the pipeline for the switch latency.
	prev := levels[len(levels)-1] // steady-state: next image follows the last block
	for _, lvl := range levels {
		if lvl != prev {
			_, e := p.SwitchCost(p.GPUFreqsHz[prev])
			totalEnergy += e
		}
		prev = lvl
	}
	return levels, totalEnergy
}

// viewFromRowBlocks maps feature-row blocks back onto graph layer IDs,
// mirroring cluster.BuildPowerView's mapping.
func viewFromRowBlocks(name string, blocks []cluster.Block, ids []int) *cluster.PowerView {
	pv := &cluster.PowerView{Model: name}
	for _, b := range blocks {
		pv.Blocks = append(pv.Blocks, cluster.PowerBlock{
			StartLayer: ids[b.Start], EndLayer: ids[b.End], NumOps: b.Len(),
		})
	}
	if len(pv.Blocks) > 0 && pv.Blocks[0].StartLayer > 0 {
		pv.Blocks[0].StartLayer = 0
	}
	return pv
}
