package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"powerlens/internal/hw"
)

// encodeDatasets runs Generate under cfg and returns the exact bytes the
// dataset file format would persist — the same path cmd/datasetgen writes
// and cmd/trainer reads.
func encodeDatasets(t *testing.T, p *hw.Platform, cfg Config) []byte {
	t.Helper()
	a, b := Generate(p, cfg)
	path := filepath.Join(t.TempDir(), "ds.json")
	if err := Save(path, p.Name, a, b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGenerateByteIdenticalAcrossCacheAndWorkers pins the encoded Dataset
// A/B bytes on both platforms to goldens recorded with an uncached oracle
// sweep (every segment summed straight from GPUOpCost), so the cost table
// cannot move them; the goldens are never re-recorded. The worker count is a
// pure performance knob: one worker or many give the same bytes.
func TestGenerateByteIdenticalAcrossCacheAndWorkers(t *testing.T) {
	base := DefaultConfig(14, 3)
	for _, p := range hw.Platforms() {
		want, err := os.ReadFile(filepath.Join("testdata", "generate_"+p.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeDatasets(t, p, base); !bytes.Equal(got, want) {
			t.Fatalf("%s: dataset bytes differ from the uncached-sweep golden", p.Name)
		}
	}

	p := hw.TX2()
	want := encodeDatasets(t, p, base)
	for _, workers := range []int{1, 8} {
		cfg := base
		cfg.Workers = workers
		if got := encodeDatasets(t, p, cfg); !bytes.Equal(got, want) {
			t.Fatalf("dataset bytes changed with Workers=%d", workers)
		}
	}
}
