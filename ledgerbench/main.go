// Command ledgerbench is the repository's end-to-end benchmark, the "layer
// ledger". It builds a seeded workload, drives it through the whole provabs
// stack inside one process — client → gateway → server (loopback HTTP) →
// registry/durable → session (+ scenql) → hypo → provenance kernel — checks
// every answer it receives bit for bit, and prints its metrics as one JSON
// object on the last line of standard output.
//
//	ledgerbench -workload q5-interactive -seed 1 -seconds 15 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs the
// layer ledger instead, timing the calls into each layer's public
// functions so that a layer's cost is its difference from the layer below.
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run of a workload produces.
type report struct {
	attempted int64
	failed    int64
	checks    *checker
	metrics   map[string]metric
	notes     []string // printed to standard error only
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// config is the parsed command line.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

var workloads = map[string]func(*config) (*report, error){
	"q5-interactive": runQ5,
	"telco-sweep":    runSweep,
	"telco-ingest":   runIngest,
}

func main() {
	name := flag.String("workload", "", "workload to run: q5-interactive, telco-sweep or telco-ingest")
	seed := flag.Int64("seed", 1, "seed of the scenario generators")
	seconds := flag.Float64("seconds", 15, "how long the measured part of the run lasts")
	trace := flag.Int("trace", 0, "1 runs the per-layer ledger instead of the end-to-end measurement")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "ledgerbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := &config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace != 0,
	}
	fmt.Printf("ledgerbench: workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d nproc=%d go=%s\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		os.Exit(1)
	}
	rep.checks.selfTest()
	correct := rep.checks.ok()
	for _, p := range rep.checks.problems {
		fmt.Fprintln(os.Stderr, "ledgerbench: wrong answer:", p)
	}

	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, "  "+n)
	}
	fmt.Fprintf(os.Stderr, "  answers checked: %d rows, attempted %d, failed %d\n",
		rep.checks.rows, rep.attempted, rep.failed)

	out, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   rep.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !correct {
		os.Exit(1)
	}
}
