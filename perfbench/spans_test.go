package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "a", Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "a", Parent: 0, Start: ms(20), End: ms(50)},  // overlaps the first child
		{Name: "b", Parent: 0, Start: ms(90), End: ms(120)}, // runs past its parent
		{Name: "c", Parent: 1, Start: ms(12), End: ms(18)},  // grandchild of root
	}
	want := []time.Duration{ms(50), ms(14), ms(30), ms(30), ms(6)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}

	lts := layerTimes(spans)
	if lts[0].Name != "root" || lts[0].Self != ms(50) {
		t.Errorf("largest self time is %+v, want root with 50ms", lts[0])
	}
	for _, lt := range lts {
		if lt.Name == "a" && (lt.Calls != 2 || lt.Total != ms(50) || lt.Self != ms(44)) {
			t.Errorf("layer a = %+v, want 2 calls, 50ms total, 44ms self", lt)
		}
	}
}

func TestTracerNestsAndPauses(t *testing.T) {
	tr := newTracer()
	tr.do("outer", func() {
		tr.do("inner", func() {})
		tr.paused = true
		tr.do("hidden", func() {})
		tr.paused = false
		tr.do("inner", func() {})
	})
	tr.do("next", func() {})
	var nilTracer *tracer
	nilTracer.do("ignored", func() {})

	names := []string{"outer", "inner", "inner", "next"}
	parents := []int{-1, 0, 0, -1}
	if len(tr.spans) != len(names) {
		t.Fatalf("recorded %d spans, want %d: %+v", len(tr.spans), len(names), tr.spans)
	}
	for i, s := range tr.spans {
		if s.Name != names[i] || s.Parent != parents[i] || s.End < s.Start {
			t.Errorf("span %d = %+v, want %s under %d", i, s, names[i], parents[i])
		}
	}
}

func TestWriteSpansIsChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	spans := []span{
		{Name: "root", Parent: -1, Start: ms(0), End: ms(10)},
		{Name: "leaf", Parent: 0, Start: ms(2), End: ms(6)},
	}
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
			Args map[string]float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	root := doc.TraceEvents[0]
	if root.Ph != "X" || root.Dur != 10_000 || root.Args["self_us"] != 6_000 || root.Args["parent"] != -1 {
		t.Errorf("root event = %+v", root)
	}
}
