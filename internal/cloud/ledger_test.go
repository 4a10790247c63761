package cloud

import (
	"bytes"
	"testing"
	"time"

	"powerlens/internal/governor"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/obs/ledger"
	"powerlens/internal/sim"
)

// planFactory builds a guarded MultiPlan controller per node, with a simple
// two-block plan for every evaluation model (block 0 from layer 0, block 1
// from layer 4).
func planFactory() ControllerFactory {
	return func() sim.Controller {
		plans := map[string]*governor.FrequencyPlan{}
		for _, name := range models.Names() {
			plans[name] = &governor.FrequencyPlan{
				Model:  name,
				Points: map[int]int{0: 5, 4: 9},
			}
		}
		return governor.NewGuard(governor.NewMultiPlan(plans))
	}
}

func ledgerBytes(t *testing.T, l *ledger.Ledger) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedLedgerByteIdentical pins the fleet attribution contract: a
// fault-free trace under a level-invariant policy completes the same multiset
// of passes at every shard count, and the ledger's integral, order-independent
// cells turn that into byte-identical exports for Shards = 1, 2, 4 and 8 —
// regardless of which nodes the work-stealing dispatcher landed each job on.
func TestShardedLedgerByteIdentical(t *testing.T) {
	p := hw.TX2()
	jobs := roundJobs(40*time.Millisecond, 13)
	run := func(shards int) ([]byte, Result) {
		l := ledger.New()
		cfg := Config{
			Nodes: 8, Platform: p, NewCtl: staticFactory(7),
			Ledger: l, Shards: shards,
		}
		res := runCfg(t, cfg, jobs)
		return ledgerBytes(t, l), res
	}
	want, res1 := run(1)
	if len(want) == 0 || res1.Passes == 0 {
		t.Fatalf("baseline ledger empty (passes=%d)", res1.Passes)
	}
	snap := func() ledger.Snapshot {
		l := ledger.New()
		cfg := Config{Nodes: 8, Platform: p, NewCtl: staticFactory(7), Ledger: l}
		runCfg(t, cfg, jobs)
		return l.Snapshot()
	}()
	var passes uint64
	for _, m := range snap.Models {
		passes += m.Passes
	}
	if int(passes) != res1.Passes {
		t.Fatalf("ledger passes %d, cluster result %d", passes, res1.Passes)
	}
	for _, shards := range []int{2, 4, 8} {
		got, res := run(shards)
		if !bytes.Equal(got, want) {
			t.Fatalf("shards=%d: ledger export differs from one-shard baseline", shards)
		}
		if res.Passes != res1.Passes || res.QoSViolations != res1.QoSViolations {
			t.Fatalf("shards=%d: QoS accounting differs: %d/%d vs %d/%d", shards,
				res.Passes, res.QoSViolations, res1.Passes, res1.QoSViolations)
		}
	}
}

// TestShardedLedgerDeterministicWithPlans reruns a plan-driven (MultiPlan
// under Guard), crashy, sharded fleet twice per shard count: identical
// configs must produce byte-identical ledger exports despite nodes simulating
// concurrently and the dispatcher stealing work between shards.
func TestShardedLedgerDeterministicWithPlans(t *testing.T) {
	p := hw.TX2()
	jobs := roundJobs(40*time.Millisecond, 17)
	for _, shards := range []int{1, 2, 4} {
		run := func() []byte {
			l := ledger.New()
			cfg := Config{
				Nodes: 6, Platform: p, NewCtl: planFactory(),
				Faults: crashyFaults(5), Ledger: l, Shards: shards,
			}
			runCfg(t, cfg, jobs)
			return ledgerBytes(t, l)
		}
		a, b := run(), run()
		if len(a) == 0 {
			t.Fatalf("shards=%d: empty ledger", shards)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("shards=%d: ledger exports differ across identical runs", shards)
		}
		// Plan-driven runs must attribute to both plan blocks.
		l := ledger.New()
		cfg := Config{Nodes: 6, Platform: p, NewCtl: planFactory(), Ledger: l, Shards: shards}
		runCfg(t, cfg, jobs)
		blocks := map[int]bool{}
		for _, c := range l.Snapshot().Cells {
			blocks[c.Block] = true
		}
		if !blocks[0] || !blocks[1] {
			t.Fatalf("shards=%d: plan blocks missing from cells: %v", shards, blocks)
		}
	}
}

// TestClusterLedgerOffIsInert pins the nil-sink contract at fleet scale: a
// run without a ledger is bit-identical to one that never knew about ledgers
// (guarding against accidental coupling), and attaching one does not change
// the simulated outcome.
func TestClusterLedgerOffIsInert(t *testing.T) {
	p := hw.TX2()
	jobs := testJobs(10)
	base := runCfg(t, Config{Nodes: 3, Platform: p, NewCtl: staticFactory(7)}, jobs)
	l := ledger.New()
	with := runCfg(t, Config{Nodes: 3, Platform: p, NewCtl: staticFactory(7), Ledger: l}, jobs)
	if base.TotalEnergyJ != with.TotalEnergyJ || base.Makespan != with.Makespan ||
		base.TotalImages != with.TotalImages || base.MeanTurnaround != with.MeanTurnaround {
		t.Fatalf("ledger perturbed the cluster run:\nbase %+v\nwith %+v", base, with)
	}
	if len(l.Snapshot().Cells) == 0 {
		t.Fatal("attached ledger stayed empty")
	}
}
