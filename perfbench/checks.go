package main

import (
	"fmt"
	"reflect"

	"powerlens/internal/cloud"
	"powerlens/internal/core"
	"powerlens/internal/graph"
	"powerlens/internal/hw"
)

// tally counts operations attempted and failed over a run. Failed fleet
// jobs, Analyze and Deploy errors and failed output checks all count.
type tally struct {
	attempted, failed int
	errs              []string
}

// op records n attempted operations of which bad failed.
func (t *tally) op(n, bad int) {
	t.attempted += n
	t.failed += bad
}

// check records one output check; a non-nil err fails it.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.errs = append(t.errs, err.Error())
	}
}

// fail records one failed operation with its cause.
func (t *tally) fail(err error) {
	t.attempted++
	t.failed++
	t.errs = append(t.errs, err.Error())
}

// completedJobs returns how many of the trace's jobs the fleet completed.
func completedJobs(res cloud.Result) int {
	n := 0
	for _, nr := range res.Nodes {
		n += nr.Jobs
	}
	return n
}

// checkFleetComplete verifies that every job of the trace completed: none
// dropped, one completion per job and every image accounted for.
func checkFleetComplete(res cloud.Result, jobs []cloud.Job) error {
	images := 0
	for _, j := range jobs {
		images += j.Images
	}
	switch {
	case res.DroppedJobs != 0:
		return fmt.Errorf("fleet dropped %d of %d jobs", res.DroppedJobs, len(jobs))
	case completedJobs(res) != len(jobs):
		return fmt.Errorf("fleet completed %d of %d jobs", completedJobs(res), len(jobs))
	case res.TotalImages != images:
		return fmt.Errorf("fleet processed %d of %d images", res.TotalImages, images)
	}
	return nil
}

// checkSame verifies that two results of the same simulated work are
// identical, bit for bit: repeats of one run, or the macro-stepped fleet
// against its micro-stepped reference.
func checkSame(what string, a, b any) error {
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("%s: results differ", what)
	}
	return nil
}

// checkPlan verifies a deployed plan: its blocks are contiguous and cover
// every layer of g, each block's level is on p's GPU ladder, and the plan
// presets exactly those levels at the blocks' first layers.
func checkPlan(p *hw.Platform, g *graph.Graph, a *core.Analysis) error {
	if a.View == nil || a.Plan == nil || len(a.View.Blocks) == 0 {
		return fmt.Errorf("%s: analysis has no view or plan", g.Name)
	}
	if len(a.Levels) != len(a.View.Blocks) {
		return fmt.Errorf("%s: %d levels for %d blocks", g.Name, len(a.Levels), len(a.View.Blocks))
	}
	next := 0
	for i, b := range a.View.Blocks {
		if b.StartLayer != next || b.EndLayer < b.StartLayer {
			return fmt.Errorf("%s: block %d spans [%d,%d], want start %d", g.Name, i, b.StartLayer, b.EndLayer, next)
		}
		next = b.EndLayer + 1
		lvl := a.Levels[i]
		if lvl < 0 || lvl >= p.NumGPULevels() {
			return fmt.Errorf("%s: block %d level %d is off the %d-level ladder", g.Name, i, lvl, p.NumGPULevels())
		}
		if got, ok := a.Plan.Points[b.StartLayer]; !ok || got != lvl {
			return fmt.Errorf("%s: plan presets %d (set %v) at layer %d, block level is %d", g.Name, got, ok, b.StartLayer, lvl)
		}
	}
	if next != len(g.Layers) {
		return fmt.Errorf("%s: blocks end at layer %d of %d", g.Name, next-1, len(g.Layers))
	}
	if len(a.Plan.Points) != len(a.View.Blocks) {
		return fmt.Errorf("%s: plan has %d points for %d blocks", g.Name, len(a.Plan.Points), len(a.View.Blocks))
	}
	return nil
}
