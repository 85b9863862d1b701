package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// env is what one workload driver runs with.
type env struct {
	seed   uint64
	window time.Duration // the measured phase
	sc     scale
	rec    *recorder
	tr     *tracer // nil unless this is the traced run
}

func (e *env) traced() bool { return e.tr != nil }

// scale fixes input sizes. full is the benchmark; tiny is the smoke test.
type scale struct {
	setups    int // set-ups per run; setup_s is their median
	minFits   int // timed fits per run even when the window is shorter
	predicts  int // latency samples per fit workload (p99 needs >= 1000)
	cifarN    int
	imageN    int
	imageCls  int
	timitN    int
	timitCls  int
	timitFeat int
	textN     int
	testN     int
	rate      float64 // open-loop request rate of amazon-serve
	floors    map[string]float64
}

var scales = map[string]scale{
	"full": {
		setups: 3, minFits: 3, predicts: 1000,
		cifarN: 1024, imageN: 1024, imageCls: 64,
		timitN: 1536, timitCls: 16, timitFeat: 1024,
		textN: 2000, testN: 500, rate: 100,
		floors: map[string]float64{"cifar-fit": 0.6, "imagenet-budget-fit": 0.6, "timit-dist-fit": 0.7, "amazon-serve": 0.8},
	},
	"tiny": {
		setups: 2, minFits: 2, predicts: 50,
		cifarN: 64, imageN: 48, imageCls: 4,
		timitN: 96, timitCls: 4, timitFeat: 64,
		textN: 200, testN: 40, rate: 100,
		floors: map[string]float64{"cifar-fit": 0.3, "imagenet-budget-fit": 0.3, "timit-dist-fit": 0.3, "amazon-serve": 0.5},
	},
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

// endToEnd is every end-to-end metric a -trace 0 run prints; perLayer is
// every per-layer metric a -trace 1 run prints. Both must equal the lists
// in BENCHMARK.json: run checks that before it prints a result.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"fit_s", "s"},
	{"fit_alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"test_accuracy", "ratio"},
	{"predict_p50_ms", "ms"},
	{"serve_rps", "1/s"},
	{"success_rate", "ratio"},
}

var perLayer = []metricDef{
	{"linalg.gemm_gflops", "GFLOP/s"},
	{"linalg.crossover_probe_s", "s"},
	{"optimizer.optimize_s", "s"},
	{"optimizer.profile_share", "ratio"},
	{"optimizer.distinct_plans", "count"},
	{"optimizer.makespan_pred_over_meas", "ratio"},
	{"optimizer.node_time_pred_over_meas", "ratio"},
	{"core.execute_s", "s"},
	{"core.node_busy_s", "s"},
	{"core.computes", "count"},
	{"core.recomputes", "count"},
	{"core.cache_hits", "count"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.evictions", "count"},
	{"engine.cache_used_mb", "MB"},
	{"engine.speculative_mb", "MB"},
	{"ops.image_s", "s"},
	{"ops.conv_s", "s"},
	{"ops.pca_s", "s"},
	{"ops.gmm_s", "s"},
	{"ops.fisher_s", "s"},
	{"ops.speech_s", "s"},
	{"ops.text_s", "s"},
	{"ops.solvers_s", "s"},
	{"dist.wire_sent_mb", "MB"},
	{"dist.wire_recv_mb", "MB"},
	{"dist.fetch_mb_per_s", "MB/s"},
	{"dist.load_mb_per_s", "MB/s"},
	{"dist.modeled_over_measured", "ratio"},
	{"dist.recoveries", "count"},
	{"serve.route_predict_p50_ms", "ms"},
	{"serve.mean_batch", "records"},
	{"serve.shed", "count"},
	{"serve.decode_us", "us"},
	{"keystone.transform_one_us", "us"},
	{"keystone.transform_one_allocs", "count"},
	{"keystone.artifact_decode_ms", "ms"},
	{"predict.p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// recorder collects one run's metrics, sample counts and gate outcomes.
// Only the metrics of the run's kind (end-to-end or per-layer) are kept.
type recorder struct {
	defs      map[string]string // name -> unit, for this run's kind
	vals      map[string]float64
	samples   map[string]int
	notes     []note
	raw       map[string][]float64 // per-sample values behind some metrics, for the run's record
	attempted int
	failed    int
	failures  []string
}

func newRecorder(perLayerRun bool) *recorder {
	list := endToEnd
	if perLayerRun {
		list = perLayer
	}
	r := &recorder{defs: map[string]string{}, vals: map[string]float64{}, samples: map[string]int{}, raw: map[string][]float64{}}
	for _, d := range list {
		r.defs[d.Name] = d.Unit
	}
	return r
}

// set records a metric measured over n samples. Metrics of the other run
// kind are ignored, so drivers can record both unconditionally.
func (r *recorder) set(name string, v float64, n int) {
	if _, ok := r.defs[name]; !ok {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is not finite", name)
		v = 0
	}
	r.vals[name] = v
	r.samples[name] = n
}

// note is a figure a run prints and keeps in its record that is not one
// of BENCHMARK.json's metrics, so it carries no bound.
type note struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

func (r *recorder) note(name string, v float64, unit string, n int) {
	r.notes = append(r.notes, note{name, v, unit, n})
}

// keep stores the samples behind a metric in the run's record.
func (r *recorder) keep(name string, xs []float64) {
	r.raw[name] = append([]float64(nil), xs...)
}

// absent records zero for every metric whose name starts with one of the
// prefixes: the layers this workload does not exercise.
func (r *recorder) absent(prefixes ...string) {
	for name := range r.defs {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				r.vals[name] = 0
				r.samples[name] = 0
			}
		}
	}
}

// check counts one attempted operation or correctness gate; a false ok
// counts it as failed and fails the run.
func (r *recorder) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
	return ok
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// matches reports whether the recorded metric names and units are exactly
// want, so a metric cannot silently vanish from the output.
func (r *recorder) matches(want []metricDef) error {
	seen := map[string]bool{}
	for _, d := range want {
		seen[d.Name] = true
		if _, ok := r.vals[d.Name]; !ok {
			return fmt.Errorf("%s was not recorded", d.Name)
		}
		if r.defs[d.Name] != d.Unit {
			return fmt.Errorf("%s has unit %q here and %q in BENCHMARK.json", d.Name, r.defs[d.Name], d.Unit)
		}
	}
	for name := range r.vals {
		if !seen[name] {
			return fmt.Errorf("%s is not in BENCHMARK.json", name)
		}
	}
	return nil
}

func (r *recorder) result() result {
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for name, v := range r.vals {
		res.Metrics[name] = metricValue{Value: v, Unit: r.defs[name]}
	}
	return res
}

// finish records success_rate, the end-to-end form of the error rate: it
// is never zero, so it can carry a bound (the raw counts are attempted
// and failed).
func (r *recorder) finish() {
	if r.attempted == 0 {
		r.check(false, "no operation was attempted")
	}
	r.set("success_rate", float64(r.attempted-r.failed)/float64(r.attempted), r.attempted)
}

// --- statistics ---

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// allocBytes returns the bytes allocated so far by the process.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// watchRSS polls the process's resident set every 10 ms until stopped
// and returns the highest reading, in MB. The fit loops report the median
// of the peaks of their fits: the process's high-water mark (VmHWM) also
// keeps a rare garbage-collector overshoot, which moved it by a fifth
// from one run to the next.
func watchRSS() (stop func() float64) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, rssMB())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		return max(peak, rssMB())
	}
}

// releaseSetup returns the set-up's garbage to the operating system
// before the measured phase, so that the first fit's resident set does
// not carry memory the crossover probe and the warm-up fits left behind.
func releaseSetup() { debug.FreeOSMemory() }

// rssMB reads the process's resident set size (0 without /proc).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / mb
}

const mb = 1 << 20

// cpuTicks reads the host's total and stolen CPU time from /proc/stat, in
// clock ticks; steal is time the hypervisor ran another guest while this
// one's virtual CPUs had work. Both read 0 where /proc/stat is missing.
func cpuTicks() (total, steal uint64) {
	all := cpuTicksAll()
	if len(all) == 0 {
		return 0, 0
	}
	return all[0].total, all[0].steal
}

type ticks struct{ total, steal uint64 }

// cpuTicksAll reads the "cpu" line of /proc/stat and then each "cpuN"
// line (nil where /proc/stat is missing).
func cpuTicksAll() []ticks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	var out []ticks
	for _, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 9 || !strings.HasPrefix(fields[0], "cpu") {
			break
		}
		var t ticks
		for i, f := range fields[1:] {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return nil
			}
			t.total += v
			if i == 7 {
				t.steal = v
			}
		}
		out = append(out, t)
	}
	return out
}

// stopwatch times an interval twice: in wall time, and net of steal, the
// time the hypervisor ran other guests on this one's virtual CPUs. On a
// shared virtual machine steal comes and goes with the neighbours' load
// and stretches every wall time it overlaps, whatever the program does.
//
// How much of a job's wall time steal takes depends on the job. Work that
// any free virtual CPU can pick up loses the mean share of CPU time
// stolen, s̄ = Σ steal / Σ total. Work that waits for every virtual CPU
// (barriers between partitions, the garbage collector's stop-the-world
// phases, a request handed from one goroutine to another) loses the share
// of time during which some virtual CPU was stolen, 1 − Π (1 − sᵢ) with
// sᵢ the share of CPU i. The net time removes the midpoint of the two,
// wall × (1 − (s̄ + 1 − Π (1 − sᵢ)) / 2); README.md gives the runs this
// model was checked against. The time metrics report it, and the wall
// medians are printed as notes. Where /proc/stat is missing the two
// are equal.
type stopwatch struct {
	t0 time.Time
	c0 []ticks
}

func startWatch() stopwatch {
	c0 := cpuTicksAll()
	return stopwatch{t0: time.Now(), c0: c0}
}

// stop returns the wall and net seconds since startWatch.
func (w stopwatch) stop() (wall, net float64) {
	wall = time.Since(w.t0).Seconds()
	c1 := cpuTicksAll()
	if len(c1) < 2 || len(c1) != len(w.c0) {
		return wall, wall
	}
	share := func(i int) float64 {
		a, b := w.c0[i], c1[i]
		if b.total <= a.total || b.steal < a.steal {
			return 0
		}
		return float64(b.steal-a.steal) / float64(b.total-a.total)
	}
	kept := 1.0
	for i := 1; i < len(c1); i++ {
		kept *= 1 - share(i)
	}
	return wall, wall * (1 - (share(0)+1-kept)/2)
}

// timings collects stopwatch readings.
type timings struct{ wall, net []float64 }

func (t *timings) add(wall, net float64) {
	t.wall = append(t.wall, wall)
	t.net = append(t.net, net)
}

// setTime records metric name as the median net time of t plus that of
// once (a one-off cost such as the crossover probe; may be empty), notes
// the same over wall time, and keeps both series in the run's record.
func (r *recorder) setTime(name string, t, once timings) {
	if _, ok := r.defs[name]; !ok {
		return
	}
	r.set(name, median(once.net)+median(t.net), len(t.net))
	r.note(name+".wall", median(once.wall)+median(t.wall), r.defs[name], len(t.wall))
	r.keep(name, t.net)
	r.keep(name+".wall", t.wall)
}

// --- host fingerprint ---

// hostInfo identifies the host and code an absolute number was measured
// on; numbers are comparable only between matching fingerprints.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func fingerprint(root string) hostInfo {
	h := hostInfo{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(root),
	}
	return h
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from or, when the
// source tree is not a repository, a digest of its Go sources and module
// files ("tree:<sha256 prefix>").
func commit(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(name, ".go") || name == "go.mod" || name == "BENCHMARK.json") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
