package cloud

import (
	"bytes"
	"testing"
	"time"

	"powerlens/internal/hw"
	"powerlens/internal/obs/audit"
)

func auditBytes(t *testing.T, rec *audit.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedAuditByteIdentical pins the fleet audit contract: in
// aggregate-only mode (RingSize < 0 — per-track rings follow job placement,
// which the work-stealing dispatcher varies with the shard count), a
// fault-free plan-driven trace produces byte-identical audit exports for
// Shards = 1, 2, 4 and 8, because apply cells and guard aggregates are
// integral and keyed on (model, digest, block, layer, level) rather than on
// which node executed the job.
func TestShardedAuditByteIdentical(t *testing.T) {
	p := hw.TX2()
	jobs := roundJobs(40*time.Millisecond, 13)
	run := func(shards int) []byte {
		rec := audit.New(audit.Config{RingSize: -1})
		cfg := Config{
			Nodes: 8, Platform: p, NewCtl: planFactory(),
			Audit: rec, Shards: shards,
		}
		runCfg(t, cfg, jobs)
		return auditBytes(t, rec)
	}
	want := run(1)
	if len(want) == 0 {
		t.Fatal("baseline audit export empty")
	}
	// The plan-driven fleet must actually have recorded applications.
	{
		rec := audit.New(audit.Config{RingSize: -1})
		cfg := Config{Nodes: 8, Platform: p, NewCtl: planFactory(), Audit: rec}
		runCfg(t, cfg, jobs)
		snap := rec.Snapshot()
		if len(snap.Applies) == 0 {
			t.Fatal("plan-driven fleet recorded no apply cells")
		}
		if len(snap.Tracks) != 0 {
			t.Fatalf("aggregate-only mode kept %d ring tracks", len(snap.Tracks))
		}
	}
	for _, shards := range []int{2, 4, 8} {
		if got := run(shards); !bytes.Equal(got, want) {
			t.Fatalf("shards=%d: audit export differs from one-shard baseline", shards)
		}
	}
}

// TestShardedAuditDeterministicWithPlans reruns a plan-driven, crashy,
// sharded fleet twice per shard count with rings enabled: identical configs
// must produce byte-identical audit exports (per-node recorders merge in
// node order, re-stamping sequence numbers deterministically) despite nodes
// simulating concurrently.
func TestShardedAuditDeterministicWithPlans(t *testing.T) {
	p := hw.TX2()
	jobs := roundJobs(40*time.Millisecond, 17)
	for _, shards := range []int{1, 2, 4} {
		run := func() []byte {
			rec := audit.New(audit.Config{RingSize: 256})
			cfg := Config{
				Nodes: 6, Platform: p, NewCtl: planFactory(),
				Faults: crashyFaults(5), Audit: rec, Shards: shards,
			}
			runCfg(t, cfg, jobs)
			return auditBytes(t, rec)
		}
		a, b := run(), run()
		if len(a) == 0 {
			t.Fatalf("shards=%d: empty audit export", shards)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("shards=%d: audit exports differ across identical runs", shards)
		}
	}

	// With rings on, merged records land on per-node tracks and the plan's
	// instrumentation points appear as apply cells on both blocks.
	rec := audit.New(audit.Config{RingSize: 256})
	cfg := Config{Nodes: 6, Platform: p, NewCtl: planFactory(), Audit: rec, Shards: 2}
	runCfg(t, cfg, jobs)
	snap := rec.Snapshot()
	if len(snap.Tracks) == 0 {
		t.Fatal("no ring tracks after merge")
	}
	for _, tr := range snap.Tracks {
		if tr.Track < nodeTrackBase {
			t.Fatalf("merged track %d below nodeTrackBase %d", tr.Track, nodeTrackBase)
		}
	}
	blocks := map[int]bool{}
	for _, a := range snap.Applies {
		blocks[a.Block] = true
	}
	if !blocks[0] || !blocks[1] {
		t.Fatalf("plan blocks missing from apply cells: %v", blocks)
	}
}
