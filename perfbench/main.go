// Command perfbench is the repository benchmark: it runs one named workload
// through the public APIs of core, dataset, cloud and sim, checks that the
// outputs are correct, and prints its metrics as one JSON object on the last
// line of standard output.
//
//	go build -o perfbench . && ./perfbench -workload fleet-plans -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it also
// records a span around every layer call it makes, writes the spans to
// -out, and prints the per-layer metrics instead. README.md holds the
// workload rationale and the metric → layer → workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// fleetKind selects the controllers a workload's fleet runs.
type fleetKind int

const (
	// seededPlans serves fixed multi-point plans drawn from the seed, so
	// decision-model changes cannot move the fleet; macro-stepped.
	seededPlans fleetKind = iota
	// reactive serves BiM (ondemand) controllers with the power trace off and
	// an energy ledger attached: every op micro-steps.
	reactive
)

const (
	deployNets = 50              // random networks per core.Deploy
	fleetJobs  = 10_000          // fleet trace length
	fleetGap   = 2 * time.Second // mean fleet inter-arrival gap
)

// workload fixes the sizes of one run. Every workload runs the offline
// workflow (deploy, analyze, zoo evaluation) and a fleet, because every run
// reports every end-to-end metric; the time shares decide which dominates.
type workload struct {
	name    string
	heldOut int // held-out graphs in the analysed stream
	fleet   fleetKind
	// Shares of the measuring time for repeated deployments, held-out
	// analysis and fleet runs.
	deployShare, analyzeShare, fleetShare float64
}

var workloads = []workload{
	{name: "offline", heldOut: 600, fleet: seededPlans,
		deployShare: 0.6, analyzeShare: 0.3, fleetShare: 0.1},
	{name: "fleet-plans", heldOut: 320, fleet: seededPlans,
		deployShare: 0.15, analyzeShare: 0.15, fleetShare: 0.7},
	{name: "fleet-reactive", heldOut: 320, fleet: reactive,
		deployShare: 0.1, analyzeShare: 0.1, fleetShare: 0.8},
}

func lookupWorkload(name string) (workload, error) {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload name")
	fs.Int64Var(&opt.seed, "seed", 1, "input seed")
	fs.IntVar(&opt.seconds, "seconds", 10, "measuring time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&opt.out, "out", ".bench_build", "directory for the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if fs.NArg() > 0 {
		return opt, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return opt, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if opt.seconds < 1 {
		return opt, fmt.Errorf("-seconds must be at least 1, got %d", opt.seconds)
	}
	opt.trace = trace == 1
	return opt, nil
}

func main() {
	opt, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(opt, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and assembles its report. Errors are reserved
// for a run that cannot produce figures at all; failed operations and
// checks are counted in the report instead.
func run(opt options, logw io.Writer) (report, error) {
	w, err := lookupWorkload(opt.workload)
	if err != nil {
		return report{}, err
	}
	b := newBench(w, opt.seed)
	if opt.trace {
		b.tr = newTracer()
	}
	e2e := map[string]metric{}

	// Set-up builds every input from the seed and, for a cached fleet,
	// fills the macro summary cache with one cold run. It is repeated and
	// its median reported, so work moved into set-up shows.
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		var err error
		setups = append(setups, b.timeIt("setup", func() { err = b.setup() }))
		if err != nil {
			return report{}, err
		}
	}
	e2e["setup_s"] = metric{median(seconds(setups)), "s"}

	// The measuring time covers the preparation (warm-ups, the first
	// deployments, the zoo evaluation) and the interleaved timed activities.
	deadline := time.Now().Add(time.Duration(opt.seconds) * time.Second)
	if err := b.prepareOffline(e2e); err != nil {
		return report{}, err
	}
	if err := b.prepareFleet(); err != nil {
		return report{}, err
	}
	if err := interleave(deadline, append(b.offlineActivities(), b.fleetActivity())); err != nil {
		return report{}, err
	}
	if err := b.offlineMetrics(e2e); err != nil {
		return report{}, err
	}
	b.fleetMetrics(e2e)

	// Live heap after the timed phases, with the workload's state (inputs,
	// frameworks, summary cache, results) still reachable.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e2e["heap_mb"] = metric{float64(ms.HeapAlloc) / 1e6, "MB"}
	runtime.KeepAlive(b)

	printMetrics(logw, w.name, e2e)
	rep := report{Metrics: e2e}
	if opt.trace {
		layers, err := b.layers()
		if err != nil {
			return report{}, err
		}
		rep.Metrics = layers
		printMetrics(logw, w.name+" per-layer", layers)
		printLayerTimes(logw, b.tr.spans)
		path := filepath.Join(opt.out, fmt.Sprintf("spans-%s-s%d.json", w.name, opt.seed))
		if err := writeSpans(path, b.tr.spans); err != nil {
			return report{}, err
		}
		fmt.Fprintln(logw, "spans written to", path)
	}
	for _, e := range b.t.errs {
		fmt.Fprintln(logw, "FAILED:", e)
	}
	rep.Attempted, rep.Failed = b.t.attempted, b.t.failed
	rep.Correct = rep.Failed == 0
	return rep, nil
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "== %s\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
