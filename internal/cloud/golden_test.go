package cloud

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"powerlens/internal/governor"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/obs"
	"powerlens/internal/obs/ledger"
	"powerlens/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the dispatcher golden files")

// dispatchGoldenCases covers every way a config reaches the dispatcher: the
// one-shard path (Shards 0, 1, and a shard count clamped down to one node)
// and the multi-shard path, each fault-free and with node crashes.
var dispatchGoldenCases = []struct {
	name          string
	nodes, shards int
	faults        hw.FaultConfig
}{
	{"shards0", 8, 0, hw.FaultConfig{}},
	{"shards0-crashy", 8, 0, crashyFaults(5)},
	{"shards1", 8, 1, hw.FaultConfig{}},
	{"shards1-crashy", 8, 1, crashyFaults(5)},
	{"solo-shards8", 1, 8, hw.FaultConfig{}},
	{"solo-shards8-crashy", 1, 8, crashyFaults(5)},
	{"shards2", 8, 2, hw.FaultConfig{}},
	{"shards2-crashy", 8, 2, crashyFaults(5)},
	{"shards4", 8, 4, hw.FaultConfig{}},
	{"shards4-crashy", 8, 4, crashyFaults(5)},
}

// oneShardOnlySeries reports whether a Prometheus line belongs to a series
// the one-shard dispatcher exports beyond the goldens' single-queue
// recording: the shard-0 completion and steal counters, and a zero failover
// count on a fault-free run.
func oneShardOnlySeries(line string) bool {
	return strings.Contains(line, "cloud_shard_jobs_total") ||
		strings.Contains(line, "cloud_steals_total") ||
		line == `cloud_jobs_total{outcome="failover"} 0`
}

// dropLines returns b's lines without those drop reports.
func dropLines(b []byte, drop func(string) bool) string {
	var kept []string
	for _, line := range strings.Split(string(b), "\n") {
		if !drop(line) {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

// TestDispatchGoldens pins the dispatcher's placement, accounting and
// telemetry against goldens in testdata/dispatch: each configuration's
// Result (JSON; float64 round-trips exactly), its Chrome trace and its
// Prometheus export. The 100-job trace spans four admission rounds of the
// multi-shard path, and the crash schedule exercises failover and drops.
// TraceOff keeps the Results free of power-sample slices. Multi-shard
// exports must match byte for byte. The one-shard goldens were recorded by
// the single-queue dispatcher that one shard replaced, so those runs may add
// only the series oneShardOnlySeries names. Re-record (-update) only for a
// deliberate behaviour change, and say so in CHANGES.md.
func TestDispatchGoldens(t *testing.T) {
	p := hw.TX2()
	jobs := roundJobs(40*time.Millisecond, 23)
	dir := filepath.Join("testdata", "dispatch")
	for _, tc := range dispatchGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.New()
			res := runCfg(t, Config{
				Nodes: tc.nodes, Platform: p, NewCtl: staticFactory(7),
				Faults: tc.faults, Obs: o, Shards: tc.shards, TraceOff: true,
			}, jobs)
			var trace, prom bytes.Buffer
			if err := o.Tracer.WriteTrace(&trace); err != nil {
				t.Fatal(err)
			}
			if err := o.Metrics.WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			resJSON, err := json.MarshalIndent(res, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			files := map[string][]byte{
				".result.json":   resJSON,
				".trace.json.gz": trace.Bytes(),
				".prom":          prom.Bytes(),
			}
			if *update {
				writeGoldens(t, dir, tc.name, files)
				return
			}
			golden := readGoldens(t, dir, tc.name, files)

			var want Result
			if err := json.Unmarshal(golden[".result.json"], &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, res) {
				t.Fatalf("Result diverges from golden:\nwant %+v\ngot  %+v", want, res)
			}
			if !bytes.Equal(golden[".trace.json.gz"], trace.Bytes()) {
				t.Fatal("Chrome trace diverges from golden")
			}
			gotProm, wantProm := prom.String(), string(golden[".prom"])
			if tc.nodes == 1 || tc.shards <= 1 {
				gotProm = dropLines(prom.Bytes(), oneShardOnlySeries)
				wantProm = dropLines(golden[".prom"], oneShardOnlySeries)
			}
			if wantProm != gotProm {
				t.Fatalf("Prometheus export diverges from golden:\nwant\n%s\ngot\n%s", wantProm, gotProm)
			}
		})
	}
}

// writeGoldens stores one configuration's golden files; ".gz" names are
// gzip-compressed (the traces are large and highly repetitive).
func writeGoldens(t *testing.T, dir, name string, files map[string][]byte) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for ext, b := range files {
		if strings.HasSuffix(ext, ".gz") {
			var z bytes.Buffer
			zw := gzip.NewWriter(&z)
			if _, err := zw.Write(b); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			b = z.Bytes()
		}
		if err := os.WriteFile(filepath.Join(dir, name+ext), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readGoldens loads the golden counterpart of every file in files,
// decompressing ".gz" names.
func readGoldens(t *testing.T, dir, name string, files map[string][]byte) map[string][]byte {
	t.Helper()
	golden := map[string][]byte{}
	for ext := range files {
		b, err := os.ReadFile(filepath.Join(dir, name+ext))
		if err != nil {
			t.Fatalf("read golden: %v (run `go test -update -run TestDispatchGoldens ./internal/cloud` to create it)", err)
		}
		if strings.HasSuffix(ext, ".gz") {
			zr, err := gzip.NewReader(bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			if b, err = io.ReadAll(zr); err != nil {
				t.Fatal(err)
			}
		}
		golden[ext] = b
	}
	return golden
}

// ledgerGoldenCases are the attribution-carrying fleets: a reactive governor
// that micro-steps every op (TraceOff, no macro cache), and a multi-block
// MultiPlan fleet that macro-steps, so cells span blocks above 0 and reach
// the ledger both from micro-stepped and fast-forwarded passes.
var ledgerGoldenCases = []struct {
	name   string
	newCtl ControllerFactory
	macro  bool
}{
	{"ledger-ondemand", func() sim.Controller { return governor.NewOndemand() }, false},
	{"ledger-multiplan", func() sim.Controller {
		plans := map[string]*governor.FrequencyPlan{}
		for _, name := range models.Names() {
			plans[name] = &governor.FrequencyPlan{
				Model:  name,
				Points: map[int]int{0: 5, 4: 9, 9: 3},
			}
		}
		return governor.NewMultiPlan(plans)
	}, true},
}

// TestDispatchLedgerGoldens pins the fleet's attribution ledger against
// goldens in testdata/dispatch: the Result JSON, the ledger's WriteJSON
// bytes and its Prometheus export (ExportTo into a fresh registry) for a
// 100-job, two-shard fleet on 8 nodes. Re-record (-update) only for a
// deliberate behaviour change, and say so in CHANGES.md.
func TestDispatchLedgerGoldens(t *testing.T) {
	p := hw.TX2()
	jobs := roundJobs(40*time.Millisecond, 29)
	dir := filepath.Join("testdata", "dispatch")
	for _, tc := range ledgerGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			l := ledger.New()
			cfg := Config{
				Nodes: 8, Platform: p, NewCtl: tc.newCtl,
				Ledger: l, Shards: 2, TraceOff: true,
			}
			if tc.macro {
				cfg.Macro = sim.NewSummaryCache()
			}
			res := runCfg(t, cfg, jobs)
			resJSON, err := json.MarshalIndent(res, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			l.ExportTo(reg)
			var prom bytes.Buffer
			if err := reg.WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			files := map[string][]byte{
				".result.json": resJSON,
				".ledger.json": ledgerBytes(t, l),
				".ledger.prom": prom.Bytes(),
			}
			if *update {
				writeGoldens(t, dir, tc.name, files)
				return
			}
			golden := readGoldens(t, dir, tc.name, files)
			var want Result
			if err := json.Unmarshal(golden[".result.json"], &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, res) {
				t.Fatalf("Result diverges from golden:\nwant %+v\ngot  %+v", want, res)
			}
			for _, ext := range []string{".ledger.json", ".ledger.prom"} {
				if !bytes.Equal(golden[ext], files[ext]) {
					t.Fatalf("%s diverges from golden:\nwant\n%s\ngot\n%s", ext, golden[ext], files[ext])
				}
			}
		})
	}
}
