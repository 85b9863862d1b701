package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON pins the metric and workload lists of
// this program to BENCHMARK.json, so neither can drift from the other.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		benchSpec
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(spec.EndToEnd) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, program prints %v", spec.EndToEnd, endToEnd)
	}
	if fmt.Sprint(spec.PerLayer) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer in BENCHMARK.json = %v, program prints %v", spec.PerLayer, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for name := range workloadFuncs {
		ours = append(ours, name)
	}
	sort.Strings(names)
	sort.Strings(ours)
	if fmt.Sprint(names) != fmt.Sprint(ours) {
		t.Errorf("workloads in BENCHMARK.json = %v, program runs %v", names, ours)
	}
}

// TestSmoke runs every workload, untraced and traced, at tiny scale and
// checks the result line: exactly the contract's keys, every gate passed,
// and exactly the metric names of BENCHMARK.json for the run's kind.
func TestSmoke(t *testing.T) {
	for name := range workloadFuncs {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				dir := t.TempDir()
				var stdout, stderr bytes.Buffer
				rc := run([]string{"-root", "..", "-out", dir, "-scale", "tiny", "-workload", name,
					"-seed", "3", "-seconds", "0.4", "-trace", trace}, &stdout, &stderr)
				if rc != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", rc, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				var keys []string
				for k := range res {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
					t.Fatalf("result keys = %s", got)
				}
				var r result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("result = correct %v, %d of %d failed", r.Correct, r.Failed, r.Attempted)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(r.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d", len(r.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("metric %s = %+v, want unit %s", d.Name, m, d.Unit)
					}
				}
				if trace == "1" {
					b, err := os.ReadFile(filepath.Join(dir, "trace-"+name+"-seed3-trace1.json"))
					if err != nil {
						t.Fatal(err)
					}
					var tf struct {
						TraceEvents []chromeEvent `json:"traceEvents"`
					}
					if err := json.Unmarshal(b, &tf); err != nil || len(tf.TraceEvents) == 0 {
						t.Fatalf("trace file: %d events, err %v", len(tf.TraceEvents), err)
					}
				}
			})
		}
	}
}
