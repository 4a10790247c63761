package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Parent is the index of the enclosing span, -1 at the root.
type span struct {
	Name       string
	Parent     int
	Start, End time.Duration // since the tracer's origin
}

// tracer keeps spans in memory for the traced run; they are written out once
// the run ends. A nil tracer, or one that is paused, records nothing, so the
// untraced run pays one nil check per call site.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int
	paused bool
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// do runs fn inside a span named name, nested under the innermost open span.
func (t *tracer) do(name string, fn func()) {
	if t == nil || t.paused {
		fn()
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.origin)})
	t.stack = append(t.stack, id)
	defer func() {
		t.spans[id].End = time.Since(t.origin)
		t.stack = t.stack[:len(t.stack)-1]
	}()
	fn()
}

// selfTimes returns each span's duration minus the part of its interval that
// its direct children cover. Overlapping children are counted once, and a
// child's time outside its parent's interval is not subtracted.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, end := time.Duration(0), s.Start
		for _, v := range ivs {
			if v.a < end {
				v.a = end
			}
			if v.b > v.a {
				covered += v.b - v.a
				end = v.b
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTime sums total and self time per span name.
type layerTime struct {
	Name        string
	Calls       int
	Total, Self time.Duration
}

func layerTimes(spans []span) []layerTime {
	self := selfTimes(spans)
	byName := map[string]*layerTime{}
	var order []string
	for i, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			order = append(order, s.Name)
		}
		lt.Calls++
		lt.Total += s.End - s.Start
		lt.Self += self[i]
	}
	out := make([]layerTime, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// writeSpans writes the spans as a Chrome trace_event file (complete events
// in microseconds, with span id, parent and self time as arguments).
func writeSpans(path string, spans []span) error {
	self := selfTimes(spans)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": i, "parent": s.Parent, "self_us": float64(self[i]) / 1e3},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("write spans %s: %w", path, err)
	}
	return f.Close()
}

// printLayerTimes writes a per-span-name table of calls, total and self time.
func printLayerTimes(w io.Writer, spans []span) {
	fmt.Fprintf(w, "%-34s %7s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, lt := range layerTimes(spans) {
		fmt.Fprintf(w, "%-34s %7d %12.3f %12.3f\n", lt.Name, lt.Calls,
			float64(lt.Total)/1e6, float64(lt.Self)/1e6)
	}
}
