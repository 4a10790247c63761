package governor

import (
	"testing"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/obs/audit"
	"powerlens/internal/sim"
)

// guardEventCounts folds a snapshot's guard aggregates into a
// (event, reason) → count map for direct assertions.
func guardEventCounts(snap audit.Snapshot) map[[2]string]uint64 {
	out := map[[2]string]uint64{}
	for _, ge := range snap.GuardEvents {
		out[[2]string{ge.Event, ge.Reason}] += ge.Count
	}
	return out
}

// runGuardedWithAudit executes one task under a guard wired to a fresh
// recorder and returns the guard plus the recorder snapshot.
func runGuardedWithAudit(t *testing.T, inner sim.Controller, images int, tune func(*Guard)) (*Guard, audit.Snapshot) {
	t.Helper()
	p := hw.TX2()
	g := models.AlexNet()
	guard := NewGuard(inner)
	if tune != nil {
		tune(guard)
	}
	rec := audit.New(audit.Config{RingSize: 4096})
	e := sim.NewExecutor(p, guard)
	e.Audit = rec
	if r := e.RunTask(g, images); r.EnergyJ <= 0 {
		t.Fatalf("run did not complete: %+v", r)
	}
	return guard, rec.Snapshot()
}

// Satellite: every guard fallback path must stamp its exact reason string
// into the audit trail — "invalid-level" from the level validator here.
func TestGuardAuditInvalidLevelReason(t *testing.T) {
	guard, snap := runGuardedWithAudit(t, &brokenCtl{outOfRange: true}, 30, nil)
	ev := guardEventCounts(snap)

	strikes := ev[[2]string{"strike", "invalid-level"}]
	if int(strikes) != guard.Stats.InvalidLevels {
		t.Fatalf("strike/invalid-level count = %d, Stats.InvalidLevels = %d (events %v)",
			strikes, guard.Stats.InvalidLevels, ev)
	}
	failovers := ev[[2]string{"failover", "invalid-level"}]
	if int(failovers) != guard.Stats.FallbackActivations {
		t.Fatalf("failover/invalid-level count = %d, Stats.FallbackActivations = %d",
			failovers, guard.Stats.FallbackActivations)
	}
	for key := range ev {
		if key[0] == "strike" && key[1] != "invalid-level" {
			t.Fatalf("out-of-range policy produced unexpected strike reason %q", key[1])
		}
	}
}

// Satellite: the oscillation detector's fallback path stamps "oscillation".
func TestGuardAuditOscillationReason(t *testing.T) {
	guard, snap := runGuardedWithAudit(t, &brokenCtl{pingPong: true}, 60, nil)
	ev := guardEventCounts(snap)

	strikes := ev[[2]string{"strike", "oscillation"}]
	if int(strikes) != guard.Stats.Oscillations {
		t.Fatalf("strike/oscillation count = %d, Stats.Oscillations = %d (events %v)",
			strikes, guard.Stats.Oscillations, ev)
	}
	if guard.Stats.FallbackActivations == 0 {
		t.Fatalf("oscillating policy never failed over: %+v", guard.Stats)
	}
	if got := ev[[2]string{"failover", "oscillation"}]; int(got) != guard.Stats.FallbackActivations {
		t.Fatalf("failover/oscillation count = %d, Stats.FallbackActivations = %d",
			got, guard.Stats.FallbackActivations)
	}
}

// Recovery events carry no reason (nothing went wrong) and must match the
// guard's recovery counter; ring records for guard events must carry the
// same exact reasons as the aggregates.
func TestGuardAuditRecoveryAndRingReasons(t *testing.T) {
	guard, snap := runGuardedWithAudit(t, &brokenCtl{outOfRange: true, healAfter: 12}, 200,
		func(g *Guard) { g.RecoveryWindows = 4 })
	ev := guardEventCounts(snap)

	if guard.Stats.Recoveries == 0 {
		t.Fatalf("policy never recovered: %+v", guard.Stats)
	}
	if got := ev[[2]string{"recovery", ""}]; int(got) != guard.Stats.Recoveries {
		t.Fatalf("recovery count = %d, Stats.Recoveries = %d (events %v)",
			got, guard.Stats.Recoveries, ev)
	}

	// Every ringed guard record must use a known event/reason pair and name
	// the wrapped controller.
	valid := map[string]map[string]bool{
		"strike":   {"invalid-level": true, "oscillation": true},
		"failover": {"invalid-level": true, "oscillation": true},
		"recovery": {"": true},
	}
	ringed := 0
	for _, tr := range snap.Tracks {
		for _, r := range tr.Records {
			if r.Kind != "guard" {
				continue
			}
			ringed++
			reasons := valid[r.Source]
			if reasons == nil || !reasons[r.Reason] {
				t.Fatalf("guard record with unexpected event/reason %q/%q", r.Source, r.Reason)
			}
			if r.Model != "broken" {
				t.Fatalf("guard record names inner %q, want %q", r.Model, "broken")
			}
		}
	}
	if ringed == 0 {
		t.Fatal("no guard records reached the ring")
	}
}

// The guard forwards SetAudit to the wrapped policy: a guarded PowerLens
// still records its plan applications, and the apply cells carry the plan's
// digest, block, layer and clamped level.
func TestGuardForwardsAuditToInnerPlan(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	lvl, _ := sim.NewCostTable(p, g).OptimalSegmentLevel(0, len(g.Layers)-1)
	mid := len(g.Layers) / 2
	plan := &FrequencyPlan{Model: g.Name, Points: map[int]int{0: lvl, mid: lvl}}

	rec := audit.New(audit.Config{})
	e := sim.NewExecutor(p, NewGuard(NewPowerLens(plan)))
	e.Audit = rec
	const images = 25
	e.RunTask(g, images)

	snap := rec.Snapshot()
	if len(snap.Applies) != len(plan.Points) {
		t.Fatalf("apply cells = %d, want one per instrumentation point (%d): %+v",
			len(snap.Applies), len(plan.Points), snap.Applies)
	}
	wantDigest := graph.DigestString(graph.Digest(g))
	for _, a := range snap.Applies {
		if a.Model != g.Name || a.Digest != wantDigest {
			t.Fatalf("apply cell model/digest = %q/%q, want %q/%q", a.Model, a.Digest, g.Name, wantDigest)
		}
		if _, ok := plan.Points[a.Layer]; !ok {
			t.Fatalf("apply cell at layer %d, not an instrumentation point %v", a.Layer, plan.Points)
		}
		if a.Level != p.ClampGPULevel(lvl) {
			t.Fatalf("apply cell level = %d, want %d", a.Level, p.ClampGPULevel(lvl))
		}
		if a.Count != images {
			t.Fatalf("apply cell count = %d, want one per pass (%d)", a.Count, images)
		}
	}
}
