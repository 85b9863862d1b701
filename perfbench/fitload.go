package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"keystoneml/internal/cluster"
	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
	"keystoneml/internal/optimizer"
	"keystoneml/keystone"
)

// testSeedSalt separates the held-out draw from the training draw.
const testSeedSalt = 0x9E3779B97F4A7C15

// fitCase is one local fit workload.
type fitCase[I any] struct {
	name        string
	build       func() *keystone.Pipeline[I, []float64]
	train, test keystone.Dataset[I]
	// budgetFrac > 0 fits under WithCacheBudget(budgetFrac × the
	// EstimatedStateBytes of the unbudgeted warm-up fit).
	budgetFrac float64
}

// cifarFilters is cifar-fit's filter bank size. With the default 16
// random whitened patches, held-out accuracy varied by 0.07–0.09 of its
// median across seeds (quartile distance); with 48 it varied by 0.02.
const cifarFilters = 48

// cifarFit: repeated local Fit of CifarPipeline on 32px RGB images, no
// cache budget. Convolution is a GEMM per image (see gemmProbe), so the
// kernel layer does most of the work.
func cifarFit(ctx context.Context, e *env) error {
	const size, classes = 32, 8
	return runLocalFit(ctx, e, fitCase[*keystone.Image]{
		name: "cifar-fit",
		build: func() *keystone.Pipeline[*keystone.Image, []float64] {
			return keystone.CifarPipeline(keystone.CifarConfig{Seed: 11, NumFilters: cifarFilters})
		},
		train: keystone.SyntheticImages(e.sc.cifarN, size, 3, classes, e.seed),
		test:  keystone.SyntheticImages(e.sc.testN, size, 3, classes, e.seed^testSeedSalt),
	})
}

// imagenetBudgetFit: repeated local Fit of the two-branch ImageNet DAG on
// 64px RGB images under a cache budget of 3% of the estimated state,
// below what the planner pins unbudgeted, so materialization planning,
// the cache manager and recomputes decide the time.
func imagenetBudgetFit(ctx context.Context, e *env) error {
	const size = 64
	return runLocalFit(ctx, e, fitCase[*keystone.Image]{
		name: "imagenet-budget-fit",
		build: func() *keystone.Pipeline[*keystone.Image, []float64] {
			return keystone.VisionPipeline(keystone.VisionConfig{WithLCS: true, SampleDescs: 8, Seed: 13})
		},
		train:      keystone.SyntheticImages(e.sc.imageN, size, 3, e.sc.imageCls, e.seed),
		test:       keystone.SyntheticImages(e.sc.testN, size, 3, e.sc.imageCls, e.seed^testSeedSalt),
		budgetFrac: 0.03,
	})
}

// crossoverProbe times the kernel-crossover probe, paid once per process
// by the first Auto-kernel Fit; the set-up pays it here instead.
func crossoverProbe(e *env, parent *span) timings {
	sp := e.tr.start("cluster.InstallKernelCrossover", parent)
	sw := startWatch()
	cluster.InstallKernelCrossover()
	wall, net := sw.stop()
	sp.end()
	e.rec.set("linalg.crossover_probe_s", wall, 1)
	var t timings
	t.add(wall, net)
	return t
}

func runLocalFit[I any](ctx context.Context, e *env, c fitCase[I]) error {
	r := e.rec
	root := e.tr.start(c.name, nil)
	defer root.end()
	probe := crossoverProbe(e, root)

	// Set-up: build the pipeline and run one unbudgeted warm-up fit,
	// several times; setup_s is the probe plus their median.
	var p *keystone.Pipeline[I, []float64]
	var setups timings
	var spec fitSpec
	n := e.sc.setups
	if e.traced() {
		n = 1
	}
	for i := 0; i < n; i++ {
		sp := e.tr.start("setup", root)
		sw := startWatch()
		p = c.build()
		f, err := p.Fit(ctx, c.train.Records, c.train.Labels)
		setups.add(sw.stop())
		sp.end()
		if !r.check(err == nil, "warm-up fit: %v", err) {
			return fmt.Errorf("warm-up fit: %w", err)
		}
		spec.budget = int64(c.budgetFrac * float64(f.Info().EstimatedStateBytes))
	}
	r.setTime("setup_s", setups, probe)
	opts := spec.options()
	releaseSetup()

	if e.traced() {
		return tracedLocalFits(ctx, e, c, p, spec, root)
	}

	var times timings
	var allocs, rss []float64
	var last *keystone.Fitted[I, []float64]
	serving := newServingProbe(c.test)
	deadline := time.Now().Add(e.window)
	for i := 0; i < e.sc.minFits || time.Now().Before(deadline); i++ {
		a0 := allocBytes()
		peak := watchRSS()
		sw := startWatch()
		f, err := p.Fit(ctx, c.train.Records, c.train.Labels, opts...)
		wall, net := sw.stop()
		rss = append(rss, peak())
		a1 := allocBytes()
		if !r.check(err == nil, "fit %d: %v", i, err) {
			continue
		}
		times.add(wall, net)
		allocs = append(allocs, float64(a1-a0)/mb)
		last = f
		serving.sample(ctx, f, samplesPerFit)
	}
	if last == nil {
		return errors.New("no fit succeeded")
	}
	r.setTime("fit_s", times, timings{})
	r.set("fit_alloc_mb", median(allocs), len(allocs))
	serving.report(ctx, e, c.name, last)
	r.set("peak_rss_mb", mean(rss), len(rss))
	r.keep("peak_rss_mb", rss)
	return nil
}

// samplesPerFit is how many single-record service times the fit loops
// take after each fit.
const samplesPerFit = 100

// servingProbe measures a fitted pipeline serving the held-out set. The
// fit loops sample it after every fit, so its figures cover the whole
// measured phase instead of one moment of it: this host's speed drifts
// by about a tenth over seconds. The speed of one fitted model also
// differs from the next model's: on imagenet-budget-fit the median
// single-record service time of a model is either near 0.48 ms or near
// 0.7 ms, and a median over models flips between the two. So the figures
// are means over the sampled models, each model counting once.
type servingProbe[I any] struct {
	test   keystone.Dataset[I]
	rates  timings     // TransformBatch passes over the held-out set, s
	lat    []float64   // single-record service times, ms
	models []float64   // median of lat per sample call, one per model
	out    [][]float64 // outputs of the last batch pass
	same   bool        // single-record outputs equal the batch outputs
	err    error
}

func newServingProbe[I any](test keystone.Dataset[I]) *servingProbe[I] {
	return &servingProbe[I]{test: test, same: true}
}

// sample collects the fits' garbage, then times one TransformBatch pass
// over the held-out set and n single-record service times, each the
// fastest of three back-to-back Transform calls on one record.
func (p *servingProbe[I]) sample(ctx context.Context, f *keystone.Fitted[I, []float64], n int) {
	runtime.GC()
	recs := p.test.Records
	sw := startWatch()
	out, err := f.TransformBatch(ctx, recs)
	wall, net := sw.stop()
	if err != nil {
		p.err = err
		return
	}
	p.rates.add(float64(len(recs))/wall, float64(len(recs))/net)
	p.out = out
	first := len(p.lat)
	for i := 0; i < n; i++ {
		k := len(p.lat) % len(recs)
		best := time.Duration(math.MaxInt64)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			o, err := f.Transform(ctx, recs[k])
			best = min(best, time.Since(t0))
			if err != nil || !reflect.DeepEqual(o, out[k]) {
				p.same = false
			}
		}
		p.lat = append(p.lat, float64(best)/float64(time.Millisecond))
	}
	if n > 0 {
		p.models = append(p.models, median(p.lat[first:]))
	}
}

// report tops the samples up from f to the workload's count, then records
// accuracy against the workload's floor, serve_rps (records/s through
// TransformBatch, mean over the passes), predict_p50_ms (mean over the
// sampled models of their median single-record service time) and
// predict.p99_ms (over all samples), and checks that single-record outputs equal the batch
// outputs. It returns f's batch outputs.
func (p *servingProbe[I]) report(ctx context.Context, e *env, name string, f *keystone.Fitted[I, []float64]) [][]float64 {
	r := e.rec
	models, sampled := p.models, len(p.lat)
	p.sample(ctx, f, max(0, e.sc.predicts-len(p.lat)))
	if len(models) > 0 {
		p.models = models // the top-up repeats the last model
	} else {
		sampled = len(p.lat)
	}
	for len(p.rates.net) < 3 && p.err == nil {
		p.sample(ctx, f, 0)
	}
	if !r.check(p.err == nil, "%s: transform: %v", name, p.err) {
		return nil
	}
	acc := keystone.Accuracy(p.out, p.test.Truth)
	floor := e.sc.floors[name]
	r.check(acc >= floor, "%s accuracy %.4f below floor %.2f", name, acc, floor)
	r.check(p.same, "%s: single-record Transform differs from TransformBatch", name)
	r.set("test_accuracy", acc, len(p.out))
	r.set("serve_rps", mean(p.rates.net), len(p.rates.net))
	r.note("serve_rps.wall", mean(p.rates.wall), "1/s", len(p.rates.wall))
	r.set("predict_p50_ms", mean(p.models), sampled)
	r.keep("predict_p50_ms", p.models)
	r.set("predict.p99_ms", quantile(p.lat, 0.99), len(p.lat))
	return p.out
}

// tracedLocalFits is the traced run of a local fit workload. It alternates
// keystone.Fit with tracedFit, which composes the same optimizer and
// executor calls from here so it can time each and reach the plan and the
// cache manager; a traced model must predict exactly what keystone.Fit's
// model with the same plan does.
func tracedLocalFits[I any](ctx context.Context, e *env, c fitCase[I], p *keystone.Pipeline[I, []float64], spec fitSpec, root *span) error {
	r := e.rec
	opts := spec.options()
	var plain, traced []float64
	var layers []fitLayers
	refs, tfs := byPlan[I]{}, byPlan[I]{}
	var first *keystone.Fitted[I, []float64]
	deadline := time.Now().Add(e.window)
	for i := 0; i < e.sc.minFits || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		f, err := p.Fit(ctx, c.train.Records, c.train.Labels, opts...)
		d := time.Since(t0)
		if r.check(err == nil, "fit %d: %v", i, err) {
			plain = append(plain, d.Seconds())
			refs.add(planKey(f.Info()), f)
			if first == nil {
				first = f
			}
		}
		g, l, err := tracedFit(ctx, e.tr, root, p, c.train.Records, c.train.Labels, spec)
		if r.check(err == nil, "traced fit %d: %v", i, err) {
			traced = append(traced, l.wall)
			layers = append(layers, l)
			tfs.add(l.plan, g)
		}
	}
	if first == nil || len(tfs) == 0 {
		return errors.New("no fit succeeded")
	}
	newServingProbe(c.test).report(ctx, e, c.name, first)
	checkTraced(ctx, e, c.name, refs, tfs, c.test.Records)

	setFitLayers(e, layers)
	r.set("optimizer.distinct_plans", float64(len(refs.union(tfs))), len(plain)+len(traced))
	r.set("trace.overhead", median(traced)/median(plain), len(traced))
	gemmProbe(e, root)
	transformProbe(ctx, e, root, first, c.test.Records)
	artifactProbe(e, root, first)
	r.absent("dist.", "serve.", "loadgen.")
	return nil
}

// byPlan keeps the first fitted pipeline of each distinct plan. Under
// LevelFull, operator selection times its candidates and may choose
// differently from one fit to the next, so a traced fit is compared with
// a keystone.Fit that made the same choices.
type byPlan[I any] map[string]*keystone.Fitted[I, []float64]

func (m byPlan[I]) add(plan string, f *keystone.Fitted[I, []float64]) {
	if m[plan] == nil {
		m[plan] = f
	}
}

func (m byPlan[I]) union(o byPlan[I]) map[string]bool {
	keys := map[string]bool{}
	for k := range m {
		keys[k] = true
	}
	for k := range o {
		keys[k] = true
	}
	return keys
}

// checkTraced is the gate that keeps the traced path from drifting from
// the real one: every traced plan that some keystone.Fit also chose must
// predict exactly what that keystone.Fit's model predicts, and at least
// one traced plan must have such a match.
func checkTraced[I any](ctx context.Context, e *env, name string, refs, traced byPlan[I], recs []I) {
	matched := 0
	for plan, tf := range traced {
		ref := refs[plan]
		if ref == nil {
			continue
		}
		matched++
		want, err := ref.TransformBatch(ctx, recs)
		if err == nil {
			var got [][]float64
			if got, err = tf.TransformBatch(ctx, recs); err == nil && !reflect.DeepEqual(got, want) {
				err = errors.New("traced fit predicts differently from keystone.Fit")
			}
		}
		e.rec.check(err == nil, "%s: %v", name, err)
	}
	if matched == 0 {
		e.rec.check(false, "%s: no keystone.Fit chose the plan of a traced fit", name)
	}
}

// fitLayers are the per-layer measurements of one traced fit.
type fitLayers struct {
	wall, optimize, execute, busy float64
	makespanRatio, nodeTimeRatio  float64
	computes, recomputes, hits    int
	hitRatio, usedMB, specMB      float64
	evictions                     int64
	ops                           map[string]float64
	plan                          string
}

// fitSpec is the subset of keystone.Fit's options the benchmark varies.
// The zero value is keystone.Fit's defaults.
type fitSpec struct {
	budget     int64          // WithCacheBudget; 0 = unlimited
	level      keystone.Level // WithOptimizerLevel
	partitions int            // WithPartitions; 0 = NumCPU
	workers    int            // WithWorkers; 0 = NumCPU
}

func (s fitSpec) options() []keystone.Option {
	opts := []keystone.Option{keystone.WithOptimizerLevel(s.level), keystone.WithWorkers(s.workers)}
	if s.budget > 0 {
		opts = append(opts, keystone.WithCacheBudget(s.budget))
	}
	if s.partitions > 0 {
		opts = append(opts, keystone.WithPartitions(s.partitions))
	}
	return opts
}

// tracedFit reproduces keystone.Fit under spec: optimize a private clone,
// execute the plan with its default cache, wrap the models. Callers check
// that its models predict exactly what keystone.Fit's do.
func tracedFit[I any](ctx context.Context, tr *tracer, parent *span, p *keystone.Pipeline[I, []float64], records []I, labels [][]float64, spec fitSpec) (*keystone.Fitted[I, []float64], fitLayers, error) {
	var l fitLayers
	sp := tr.start("fit(traced)", parent)
	defer sp.end()
	start := time.Now()
	linalg.SetBackendMode(linalg.ModeAuto)
	cluster.InstallKernelCrossover()
	linalg.SetKernelParallelism(engine.NewContext(spec.workers).Parallelism)

	parts := spec.partitions
	if parts <= 0 {
		parts = min(runtime.NumCPU(), len(records))
	}
	boxed := make([]any, len(records))
	for i, rec := range records {
		boxed[i] = rec
	}
	boxedLab := make([]any, len(labels))
	for i, lab := range labels {
		boxedLab[i] = lab
	}
	data := engine.FromSlice(boxed, parts)
	lab := engine.FromSlice(boxedLab, parts)
	graph, out := p.EngineGraph()
	g := graph.Clone()
	g.Sink = g.Nodes[out.ID]

	level := optimizer.LevelFull
	switch spec.level {
	case keystone.LevelPipeline:
		level = optimizer.LevelPipeline
	case keystone.LevelNone:
		level = optimizer.LevelNone
	}
	osp := tr.start("optimizer.OptimizeContext", sp)
	plan, err := optimizer.OptimizeContext(ctx, g, data, lab, optimizer.Config{
		Level:          level,
		Resources:      cluster.Local(8),
		MemBudgetBytes: spec.budget,
		NumClasses:     len(labels[0]),
		Parallelism:    spec.workers,
	})
	osp.end()
	if err != nil {
		return nil, l, err
	}
	cache := plan.DefaultCache(spec.budget)
	esp := tr.start("optimizer.Plan.ExecuteContext", sp)
	stop := sampleCache(cache)
	models, _, report, err := plan.ExecuteContext(ctx, data, lab, spec.workers, cache)
	usedPeak, specPeak := stop()
	esp.end()
	if err != nil {
		return nil, l, err
	}
	inner := core.NewFitted(plan.Graph, models, engine.NewContext(spec.workers))
	fitted := keystone.NewEngineFitted[I, []float64](inner, keystone.FitInfo{})
	l.wall = time.Since(start).Seconds()

	l.optimize = plan.OptimizeTime.Seconds()
	l.execute = report.Total.Seconds()
	if plan.Schedule != nil && l.execute > 0 {
		l.makespanRatio = plan.Schedule.Makespan() / l.execute
	}
	l.ops = map[string]float64{}
	var predT, measT float64
	for id, st := range report.Nodes {
		l.busy += st.Time.Seconds()
		l.computes += st.Computes
		l.hits += st.Hits
		if st.Computes > 1 {
			l.recomputes += st.Computes - 1
		}
		n := plan.Graph.Nodes[id]
		if pkg := opPackage(n, models); pkg != "" {
			l.ops[pkg] += st.Time.Seconds()
		}
		if np, ok := plan.Profile.Nodes[id]; ok && st.Computes > 0 && st.Time > 0 {
			predT += np.TimeSec
			measT += st.TimePerCompute().Seconds()
		}
	}
	if measT > 0 {
		l.nodeTimeRatio = predT / measT
	}
	if cache != nil {
		hits, misses, ev := cache.Stats()
		if hits+misses > 0 {
			l.hitRatio = float64(hits) / float64(hits+misses)
		}
		l.evictions = ev
	}
	l.usedMB = float64(usedPeak) / mb
	l.specMB = float64(specPeak) / mb
	cached := make([]string, 0, len(plan.CacheSet))
	for _, id := range plan.CacheSet {
		cached = append(cached, plan.Graph.Nodes[id].OpName())
	}
	chosen := make([]string, 0, len(plan.Chosen))
	for id, op := range plan.Chosen {
		chosen = append(chosen, fmt.Sprintf("#%d %s", id, op))
	}
	l.plan = planString(cached, chosen)
	return fitted, l, nil
}

// planKey identifies a fit's optimizer decisions: the cached operators
// and the physical operator chosen per node.
func planKey(info keystone.FitInfo) string {
	chosen := make([]string, 0, len(info.Chosen))
	for k, v := range info.Chosen {
		chosen = append(chosen, k[:strings.IndexByte(k+" ", ' ')]+" "+v)
	}
	return planString(append([]string(nil), info.Cached...), chosen)
}

func planString(cached, chosen []string) string {
	sort.Strings(cached)
	sort.Strings(chosen)
	return strings.Join(cached, ",") + "|" + strings.Join(chosen, ",")
}

// sampleCache polls the cache manager every millisecond until stopped and
// returns the peak bytes held and the peak speculatively retained.
func sampleCache(cache *engine.CacheManager) (stop func() (used, spec int64)) {
	if cache == nil {
		return func() (int64, int64) { return 0, 0 }
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var used, spec int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			used = max(used, cache.Used())
			spec = max(spec, cache.SpeculativeBytes())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() (int64, int64) {
		close(done)
		wg.Wait()
		return used, spec
	}
}

// opsPackages are the operator packages ops.<package>_s sums node time
// over.
var opsPackages = []string{"image", "conv", "pca", "gmm", "fisher", "speech", "text", "solvers"}

// opPackage attributes a node's compute time to an operator package: by
// the physical operator named in brackets ("image.descpca.est[pca.tsvd.dist]"
// is PCA work), else by the Go package of its operator (for an apply node,
// of the fitted model), else by its name prefix for operators wrapped in
// core or assembled in the pipelines package.
func opPackage(n *core.Node, models map[int]core.TransformOp) string {
	var op any
	switch n.Kind {
	case core.KindTransform:
		op = n.Transform
	case core.KindEstimator:
		op = n.Estimator
	case core.KindApplyModel:
		op = models[n.Deps[0].ID]
	default:
		return ""
	}
	name := n.OpName()
	if i := strings.IndexByte(name, '['); i >= 0 {
		if pkg := namePackage(name[i+1:]); pkg != "" {
			return pkg
		}
	}
	if t := reflect.TypeOf(op); t != nil {
		if t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		pkg := t.PkgPath()
		pkg = pkg[strings.LastIndexByte(pkg, '/')+1:]
		for _, p := range opsPackages {
			if p == pkg {
				return p
			}
		}
	}
	return namePackage(name)
}

func namePackage(name string) string {
	if i := strings.IndexAny(name, ".["); i > 0 {
		name = name[:i]
	}
	switch name {
	case "solver":
		return "solvers"
	case "cifar":
		return "conv"
	}
	for _, p := range opsPackages {
		if p == name {
			return p
		}
	}
	return ""
}

func setFitLayers(e *env, ls []fitLayers) {
	pick := func(f func(l fitLayers) float64) float64 {
		xs := make([]float64, len(ls))
		for i, l := range ls {
			xs[i] = f(l)
		}
		return median(xs)
	}
	n := len(ls)
	r := e.rec
	r.set("optimizer.optimize_s", pick(func(l fitLayers) float64 { return l.optimize }), n)
	r.set("optimizer.profile_share", pick(func(l fitLayers) float64 { return l.optimize / l.wall }), n)
	r.set("optimizer.makespan_pred_over_meas", pick(func(l fitLayers) float64 { return l.makespanRatio }), n)
	r.set("optimizer.node_time_pred_over_meas", pick(func(l fitLayers) float64 { return l.nodeTimeRatio }), n)
	r.set("core.execute_s", pick(func(l fitLayers) float64 { return l.execute }), n)
	r.set("core.node_busy_s", pick(func(l fitLayers) float64 { return l.busy }), n)
	r.set("core.computes", pick(func(l fitLayers) float64 { return float64(l.computes) }), n)
	r.set("core.recomputes", pick(func(l fitLayers) float64 { return float64(l.recomputes) }), n)
	r.set("core.cache_hits", pick(func(l fitLayers) float64 { return float64(l.hits) }), n)
	r.set("engine.cache_hit_ratio", pick(func(l fitLayers) float64 { return l.hitRatio }), n)
	r.set("engine.evictions", pick(func(l fitLayers) float64 { return float64(l.evictions) }), n)
	r.set("engine.cache_used_mb", pick(func(l fitLayers) float64 { return l.usedMB }), n)
	r.set("engine.speculative_mb", pick(func(l fitLayers) float64 { return l.specMB }), n)
	for _, p := range opsPackages {
		r.set("ops."+p+"_s", pick(func(l fitLayers) float64 { return l.ops[p] }), n)
	}
}

// gemmProbe measures linalg.Blocked().Mul at cifar-fit's convolution
// shape: the 28·28 patches of a 32px image, each 5·5·3 values, times its
// bank of filters.
func gemmProbe(e *env, parent *span) {
	const m, k, n = 28 * 28, 5 * 5 * 3, cifarFilters
	rng := linalg.NewRNG(e.seed)
	a := rng.GaussianMatrix(m, k)
	b := rng.GaussianMatrix(k, n)
	dst := make([]float64, m*n)
	be := linalg.Blocked()
	sp := e.tr.start("linalg.Blocked.Mul", parent)
	var rates []float64
	for rep := 0; rep < 5; rep++ {
		iters := 0
		t0 := time.Now()
		for time.Since(t0) < 40*time.Millisecond {
			be.Mul(dst, a.Data, b.Data, m, k, n)
			iters++
		}
		rates = append(rates, 2*float64(m)*float64(k)*float64(n)*float64(iters)/time.Since(t0).Seconds()/1e9)
	}
	sp.end()
	e.rec.set("linalg.gemm_gflops", median(rates), len(rates))
}

// transformProbe measures the single-record hot path: mean time and heap
// allocations of one Fitted.Transform.
func transformProbe[I any](ctx context.Context, e *env, parent *span, f *keystone.Fitted[I, []float64], recs []I) {
	sp := e.tr.start("keystone.Fitted.Transform", parent)
	n := 0
	m0 := mallocs()
	t0 := time.Now()
	for time.Since(t0) < 200*time.Millisecond || n < len(recs) {
		if _, err := f.Transform(ctx, recs[n%len(recs)]); !e.rec.check(err == nil, "transform: %v", err) {
			break
		}
		n++
	}
	d := time.Since(t0)
	m1 := mallocs()
	sp.end()
	e.rec.set("keystone.transform_one_us", float64(d)/float64(time.Microsecond)/float64(n), n)
	e.rec.set("keystone.transform_one_allocs", float64(m1-m0)/float64(n), n)
}

// artifactProbe times keystone.Decode of the fitted pipeline's artifact.
func artifactProbe[I any](e *env, parent *span, f *keystone.Fitted[I, []float64]) {
	art, err := keystone.Encode(f)
	if !e.rec.check(err == nil, "encode artifact: %v", err) {
		e.rec.set("keystone.artifact_decode_ms", 0, 0)
		return
	}
	var ds []float64
	for rep := 0; rep < 5; rep++ {
		sp := e.tr.start("keystone.Decode", parent)
		t0 := time.Now()
		_, err := keystone.Decode[I, []float64](art)
		ds = append(ds, float64(time.Since(t0))/float64(time.Millisecond))
		sp.end()
		e.rec.check(err == nil, "decode artifact: %v", err)
	}
	e.rec.set("keystone.artifact_decode_ms", median(ds), len(ds))
}
