// Command perfbench is the control-plane benchmark: it runs one workload
// against real flowtuned daemons and clients, checks the rates they produce,
// and prints every metric by name with its unit. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics; with -trace 0 the metrics are the end-to-end ones, with -trace 1
// the per-layer ones. See NOTES.md for what each metric means on each
// workload.
//
//	go run . -workload churn-100k -seed 1 -seconds 12 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	duration time.Duration
	traced   bool
	traceOut string
}

// metricDef is one reported metric's unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms_mean", "ms"},
	{"latency_ms_p95", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run, reported on every workload.
var perLayer = []metricDef{
	{"transport.encode_us_per_step", "us"},
	{"transport.write_us_per_step", "us"},
	{"transport.decode_us_per_step", "us"},
	{"server.turnaround_us_per_step", "us"},
	{"server.reply_write_us_per_step", "us"},
	{"server.events_per_step", "count"},
	{"server.updates_per_step", "count"},
	{"server.fanout_bytes_per_step", "B"},
	{"server.coalesced_frac", "ratio"},
	{"server.iterations_per_s", "1/s"},
	{"core.iterate_us_p50", "us"},
	{"core.threshold_us", "us"},
	{"core.flowlet_add_ns", "ns"},
	{"num.ned_step_us", "us"},
	{"norm.fnorm_us", "us"},
	{"wire.rate_delta_encode_ns_per_entry", "ns"},
	{"wire.rate_delta_decode_ns_per_entry", "ns"},
	{"wire.bytes_per_entry", "B"},
	{"cluster.exchange_bytes_per_step", "B"},
	{"cluster.exchange_folds_per_step", "count"},
	{"cluster.staleness_iters_mean", "count"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.calibration_ns", "ns"},
}

// result is one run's outcome. metrics feed the JSON line; report holds
// every metric of the run, including the workload-specific ones the JSON
// line does not carry, for the human-readable lines.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
	report            []reportLine
	checkErrs         []error
}

type reportLine struct {
	name, unit string
	value      float64
	note       string
}

func newResult() *result { return &result{metrics: make(map[string]float64)} }

// set records a metric for the JSON line and the report.
func (r *result) set(name, unit string, v float64) {
	r.metrics[name] = v
	r.report = append(r.report, reportLine{name: name, unit: unit, value: v})
}

// show records a report-only metric.
func (r *result) show(name, unit string, v float64, note string) {
	r.report = append(r.report, reportLine{name: name, unit: unit, value: v, note: note})
}

// check records a failed output check (nil errors are ignored).
func (r *result) check(err error) {
	if err != nil {
		r.checkErrs = append(r.checkErrs, err)
	}
}

var workloads = map[string]func(options) (*result, error){
	"churn-100k":        runChurn100k,
	"converged-10k":     runConverged10k,
	"sharded-churn":     runShardedChurn,
	"openloop-arrivals": runOpenLoop,
}

func itoa(v int) string       { return strconv.Itoa(v) }
func ftoa(v float64) string   { return strconv.FormatFloat(v, 'g', -1, 64) }
func usOf(ns float64) float64 { return ns / 1e3 }

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	var seed int64
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&seed, "seed", 1, "seed for the generated inputs")
	flag.IntVar(&seconds, "seconds", 12, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/traces/<workload>-seed<n>.jsonl)")
	flag.Parse()
	fn, ok := workloads[o.workload]
	if !ok || seconds < 1 || trace < 0 || trace > 1 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %v), -seconds >= 1 and -trace 0|1\n", names)
		return 2
	}
	o.seed, o.duration, o.traced = uint64(seed), time.Duration(seconds)*time.Second, trace == 1
	if o.traced && o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, seed))
	}

	cal := calibrate()
	res, err := fn(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if o.traced {
		res.set("bench.calibration_ns", "ns", cal)
	}
	want := endToEnd
	if o.traced {
		want = perLayer
	}
	out := make(map[string]map[string]any, len(want))
	for _, m := range want {
		v, ok := res.metrics[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", o.workload, m.name)
			return 1
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}

	fmt.Println(machineLine(cal))
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", o.workload, seed, seconds, trace)
	for _, l := range res.report {
		fmt.Printf("metric %-40s %-14s %s", l.name, ftoa(l.value), l.unit)
		if l.note != "" {
			fmt.Printf("  (%s)", l.note)
		}
		fmt.Println()
	}
	for _, e := range res.checkErrs {
		fmt.Printf("check FAILED: %v\n", e)
	}
	correct := len(res.checkErrs) == 0 && res.failed == 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}
