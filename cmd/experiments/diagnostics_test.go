package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The calibrate and dispersion reports are pinned byte for byte to goldens
// recorded before their cost queries moved onto sim.CostTable (when they
// summed segments straight from GPUOpCost); the goldens are never
// re-recorded.

func checkReportGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: report differs from the golden\ngot:\n%s", name, got)
	}
}

func TestCalibrateGolden(t *testing.T) {
	for _, tc := range []struct {
		golden  string
		verbose bool
	}{{"calibrate.txt", false}, {"calibrate_v.txt", true}} {
		var buf bytes.Buffer
		runCalibrate(&buf, tc.verbose)
		checkReportGolden(t, tc.golden, buf.Bytes())
	}
}

func TestDispersionGolden(t *testing.T) {
	var buf bytes.Buffer
	runDispersion(&buf)
	checkReportGolden(t, "dispersion.txt", buf.Bytes())
}
