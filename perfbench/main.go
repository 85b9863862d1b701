// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the public API, checks the outputs, and prints every
// metric by name and unit; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//	go build -o perfbench . && ./perfbench -root .. -workload cifar-fit -seed 1 -seconds 15 -trace 0
//
// With -trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
// -trace 1 it runs the traced variant of the workload, times the calls
// into each module from this package's own code, prints the per-layer
// metrics and writes the spans as a Chrome trace-event file. run.py
// builds the binary and runs it from the repository root.
//
// Exit codes: 0 when every correctness gate passed, 1 when a gate failed
// (the result is still printed), 2 on a usage or set-up error (no result).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runLimit bounds one invocation: a hung load generator or fit must not
// keep the process alive past the benchmark's 180-second contract.
const runLimit = 170 * time.Second

func main() {
	go func() {
		time.Sleep(runLimit)
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", runLimit)
		os.Exit(3)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloadFuncs maps each workload name of BENCHMARK.json to its driver.
var workloadFuncs = map[string]func(ctx context.Context, e *env) error{
	"cifar-fit":           cifarFit,
	"imagenet-budget-fit": imagenetBudgetFit,
	"timit-dist-fit":      timitDistFit,
	"amazon-serve":        amazonServe,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name from BENCHMARK.json")
	seed := fs.Uint64("seed", 1, "input seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	root := fs.String("root", ".", "repository root (holds BENCHMARK.json)")
	scaleName := fs.String("scale", "full", "input sizes: full, or tiny for the smoke test")
	rate := fs.Float64("rate", 0, "open-loop requests/s of amazon-serve (default: the scale's)")
	outDir := fs.String("out", "", "directory for result records and traces (default <root>/.bench_build/perfbench)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloadFuncs[*workload]
	sc, okScale := scales[*scaleName]
	if !ok || !okScale || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, scale %q, seconds %v, trace %d)\n",
			*workload, *scaleName, *seconds, *trace)
		return 2
	}
	spec, err := loadSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *rate > 0 {
		sc.rate = *rate
	}
	if *outDir == "" {
		*outDir = filepath.Join(*root, ".bench_build", "perfbench")
	}

	e := &env{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		sc:     sc,
		rec:    newRecorder(*trace == 1),
	}
	if *trace == 1 {
		e.tr = newTracer()
	}
	host := fingerprint(*root)
	fmt.Fprintf(stdout, "host %s\n", mustJSON(host))
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d scale %s rate %g\n", *workload, *seed, *seconds, *trace, *scaleName, sc.rate)

	total0, steal0 := cpuTicks()
	if err := drive(context.Background(), e); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 2
	}
	e.rec.finish()
	if total1, steal1 := cpuTicks(); total1 > total0 {
		// A run that lost much of its CPU time to other guests reads slow.
		e.rec.note("host_steal_share", float64(steal1-steal0)/float64(total1-total0), "ratio", 1)
	}
	want := spec.EndToEnd
	if *trace == 1 {
		want = spec.PerLayer
	}
	if err := e.rec.matches(want); err != nil {
		fmt.Fprintln(stderr, "perfbench: metric set does not match BENCHMARK.json:", err)
		return 2
	}

	res := e.rec.result()
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "%-36s %14.6g %-8s n=%d\n", name, m.Value, m.Unit, e.rec.samples[name])
	}
	for _, n := range e.rec.notes {
		fmt.Fprintf(stdout, "note %-31s %14.6g %-8s n=%d\n", n.Name, n.Value, n.Unit, n.Samples)
	}
	errRate := 0.0
	if res.Attempted > 0 {
		errRate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(stdout, "error_rate %.6g (failed %d of %d attempted)\n", errRate, res.Failed, res.Attempted)
	for _, f := range e.rec.failures {
		fmt.Fprintln(stdout, "FAILED:", f)
	}

	if err := writeRecords(*outDir, *workload, *seed, *trace, host, e, res); err != nil {
		fmt.Fprintln(stderr, "perfbench: write records:", err)
	}
	fmt.Fprintln(stdout, mustJSON(res))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeRecords keeps the full record of one run next to the build: the
// host fingerprint and seed (so absolute numbers are compared only
// between matching hosts), the metrics with their sample counts, and for
// a traced run the Chrome trace-event file.
func writeRecords(dir, workload string, seed uint64, trace int, host hostInfo, e *env, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := map[string]any{
		"workload": workload,
		"seed":     seed,
		"trace":    trace,
		"host":     host,
		"result":   res,
		"samples":  e.rec.samples,
		"notes":    e.rec.notes,
		"raw":      e.rec.raw,
		"failures": e.rec.failures,
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", workload, seed, trace)
	if err := os.WriteFile(filepath.Join(dir, "result-"+base+".json"), []byte(mustJSON(rec)+"\n"), 0o644); err != nil {
		return err
	}
	if e.tr == nil {
		return nil
	}
	return e.tr.writeChrome(filepath.Join(dir, "trace-"+base+".json"))
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, slices and numbers are marshalled
	}
	return string(b)
}
