// Command experiments regenerates the paper's tables and figures on the
// simulated platforms. See DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured results.
//
// Usage:
//
//	experiments all    [-networks N] [-seed S]   # everything, one deployment
//	experiments table1 [-networks N] [-seed S]   # Table 1: per-model EE gains
//	experiments table2 [-networks N] [-seed S]   # Table 2: P-R / P-N ablation
//	experiments table3 [-networks N] [-seed S]   # Table 3: offline overhead
//	experiments fig1   [-networks N] [-seed S]   # Figure 1: traces + ping-pong/lag
//	experiments fig5   [-networks N] [-seed S] [tasks]  # Figure 5: task flow
//	experiments report [-networks N] [-o report.html]  # self-contained HTML report
//	experiments thermal [-networks N] [-seed S]  # sustained-load throttling study
//	experiments ext    [-networks N] [-seed S]   # §5 extensions: CPU DVFS + batching
//	experiments resilience [-networks N] [-seed S] [-tasks T] [-nodes K] [-jobs J]
//	                       [-trace-out F] [-metrics-out F] [-serve :8080] [-serve-for D] [-run-dir runs]
//	                                              # fault injection: guarded governors + cluster failover
//	experiments observe [-networks N] [-seed S] [-tasks T] [-nodes K] [-jobs J]
//	                    [-trace-out observe_trace.json] [-metrics-out observe_metrics.prom]
//	                    [-serve :8080] [-serve-for D] [-run-dir runs]
//	                                              # instrumented run: Chrome trace + Prometheus metrics,
//	                                              # live HTTP telemetry, run-provenance recording
//	experiments slo    [-networks N] [-seed S] [-tasks T] [-target F] [-budget W]
//	                   [-slo-out slo_status.json] [-ledger-out slo_ledger.json]
//	                   [-metrics-out slo_metrics.prom] [-serve :8080] [-serve-for D] [-run-dir runs]
//	                                              # energy-attribution ledger + SLO burn-rate tracking,
//	                                              # served live on GET /slo with -serve
//	experiments drift  [-networks N] [-seed S] [-traffic T] [-audited A] [-threshold F]
//	                   [-audit-out drift_audit.json] [-drift-out drift_status.json]
//	                   [-baseline-out baseline.plqs] [-metrics-out drift_metrics.prom]
//	                   [-serve :8080] [-serve-for D] [-run-dir runs]
//	                                              # decision provenance + model-drift detection: two-phase
//	                                              # live traffic (in-distribution, then injected shift),
//	                                              # served live on GET /audit and GET /drift with -serve
//	experiments bench  [-name N] [-seed S] [-smoke] [-repeats R] [-o F]  # perf baseline -> BENCH_<name>.json
//	experiments bench compare [-slack X] OLD.json NEW.json  # exit nonzero on regression
//	experiments bench validate FILE...            # schema-check bench reports
//	experiments switch                            # §3.3 switch microbenchmark
//	experiments calibrate                         # hw-model diagnostics
//	experiments dispersion                        # per-stage oracle diagnostics
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		return
	}
	args := os.Args[2:]
	switch os.Args[1] {
	case "all":
		runAll(args)
	case "table1":
		runTable1(args)
	case "table2":
		runTable2(args)
	case "table3":
		runTable3(args)
	case "fig1":
		runFig1(args)
	case "fig5":
		runFig5(args)
	case "report":
		runReport(args)
	case "thermal":
		runThermal(args)
	case "ext":
		runExt(args)
	case "resilience":
		runResilience(args)
	case "observe":
		runObserve(args)
	case "slo":
		runSLO(args)
	case "drift":
		runDrift(args)
	case "bench":
		runBench(args)
	case "switch":
		runSwitch()
	case "calibrate":
		runCalibrate(os.Stdout, false)
	case "calibrate-v":
		runCalibrate(os.Stdout, true)
	case "dispersion":
		runDispersion(os.Stdout)
	default:
		usage()
	}
}

func usage() {
	fmt.Println("usage: experiments <all|report|table1|table2|table3|fig1|fig5|ext|thermal|resilience|observe|slo|drift|bench|switch|calibrate|dispersion> [-networks N] [-seed S]")
}
