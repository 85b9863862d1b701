package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"keystoneml/keystone"
	"keystoneml/keystone/serve"
)

// amazonServe: TextPipeline served by serve.Server over HTTP on loopback.
// Set-up fits the pipeline, round-trips it through Encode/Decode and
// serves the decoded artifact. The serving lasts the measured phase: an
// open loop at a fixed rate to POST /predict for half of it
// (predict_p50_ms; its p99 is printed as a note and reported by the traced
// run), then a closed loop with nproc keep-alive clients for a quarter
// (serve_rps). Timed fits run for a quarter before, between and after
// them (fit_s), so an untraced run lasts one and a half measured phases.
// Every response must equal TransformBatch of the decoded artifact.
func amazonServe(ctx context.Context, e *env) error {
	r := e.rec
	sc := e.sc
	train := keystone.SyntheticReviews(sc.textN, e.seed)
	test := keystone.SyntheticReviews(sc.testN, e.seed^testSeedSalt)
	codec := serve.TextCodec{Labels: []string{"negative", "positive"}}
	root := e.tr.start("amazon-serve", nil)
	defer root.end()
	probe := crossoverProbe(e, root)

	// Set-up: fit, encode, decode, register the route and listen.
	var st *serveStack
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	var setups timings
	var decodes []float64
	var fitted, dec *keystone.Fitted[string, []float64]
	n := sc.setups
	if e.traced() {
		n = 1
	}
	for i := 0; i < n; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		sp := e.tr.start("setup", root)
		sw := startWatch()
		f, err := keystone.TextPipeline(keystone.TextConfig{}).Fit(ctx, train.Records, train.Labels)
		if !r.check(err == nil, "fit: %v", err) {
			sp.end()
			return fmt.Errorf("fit: %w", err)
		}
		art, err := keystone.Encode(f)
		if !r.check(err == nil, "encode artifact: %v", err) {
			sp.end()
			return fmt.Errorf("encode: %w", err)
		}
		dsp := e.tr.start("keystone.Decode", sp)
		t1 := time.Now()
		d, err := keystone.Decode[string, []float64](art)
		decodes = append(decodes, float64(time.Since(t1))/float64(time.Millisecond))
		dsp.end()
		if !r.check(err == nil, "decode artifact: %v", err) {
			sp.end()
			return fmt.Errorf("decode: %w", err)
		}
		st, err = startServe(d, codec)
		setups.add(sw.stop())
		sp.end()
		if err != nil {
			return err
		}
		fitted, dec = f, d
	}
	r.setTime("setup_s", setups, probe)
	r.set("keystone.artifact_decode_ms", median(decodes), len(decodes))

	// The fit a route serves, timed outside the serving windows for a
	// quarter of the measured phase before the open loop, between the open
	// and the closed loop, and after the closed loop: as long as the
	// serving itself, and spread over the whole run. The traced run
	// alternates keystone.Fit with tracedFit in its one fit phase, so
	// every traced plan can be checked against a keystone.Fit.
	p := keystone.TextPipeline(keystone.TextConfig{})
	var fits timings
	var allocs, rss []float64
	refs, tfs := byPlan[string]{}, byPlan[string]{}
	var layers []fitLayers
	fitPhase := func(d time.Duration) {
		for t0 := time.Now(); time.Since(t0) < d || len(fits.net) < 3; {
			a0 := allocBytes()
			peak := watchRSS()
			sw := startWatch()
			f, err := p.Fit(ctx, train.Records, train.Labels)
			wall, net := sw.stop()
			rss = append(rss, peak())
			a1 := allocBytes()
			if !r.check(err == nil, "fit: %v", err) {
				return
			}
			fits.add(wall, net)
			allocs = append(allocs, float64(a1-a0)/mb)
			refs.add(planKey(f.Info()), f)
			if !e.traced() {
				continue
			}
			tf, l, err := tracedFit(ctx, e.tr, root, p, train.Records, train.Labels, fitSpec{})
			if !r.check(err == nil, "traced fit: %v", err) {
				return
			}
			tfs.add(l.plan, tf)
			layers = append(layers, l)
		}
	}
	releaseSetup()
	fitPhase(e.window / 4)

	// Expected responses: TransformBatch of the decoded artifact, which
	// must itself equal the in-memory fitted pipeline's.
	want, err := dec.TransformBatch(ctx, test.Records)
	if !r.check(err == nil, "transform batch: %v", err) {
		return err
	}
	orig, err := fitted.TransformBatch(ctx, test.Records)
	r.check(err == nil && reflect.DeepEqual(orig, want), "artifact round-trip changed predictions")
	acc := keystone.Accuracy(want, test.Truth)
	r.check(acc >= sc.floors["amazon-serve"], "accuracy %.4f below floor %.2f", acc, sc.floors["amazon-serve"])
	r.set("test_accuracy", acc, len(want))
	expected := make([]serve.Prediction, len(want))
	bodies := make([][]byte, len(want))
	for i, doc := range test.Records {
		expected[i] = codec.Response(want[i]).(serve.Prediction)
		bodies[i], _ = json.Marshal(map[string]string{"text": doc}) // a map of strings always marshals
	}

	clients := runtime.NumCPU()
	transport := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 10 * time.Second}
	post := httpSender(client, "http://"+st.addr()+"/predict", bodies, expected)
	runtime.GC() // the set-up fits' garbage is not part of serving

	if !e.traced() {
		open := openLoop(e, root, "", sc.rate, e.window/2, post)
		fitPhase(e.window / 4)
		runtime.GC()
		sw := startWatch()
		closed := closedLoop(e, root, "", e.window/4, post)
		wall, net := sw.stop()
		fitPhase(e.window / 4)
		r.setTime("fit_s", fits, timings{})
		r.set("fit_alloc_mb", median(allocs), len(allocs))
		open.record(r)
		closed.record(r)
		r.set("predict_p50_ms", median(open.lat), len(open.lat))
		r.note("predict_p99_ms", quantile(open.lat, 0.99), "ms", len(open.lat))
		r.note("loadgen_late_p99_ms", quantile(open.late, 0.99), "ms", len(open.late))
		r.set("serve_rps", float64(closed.ok)/net, closed.ok)
		r.note("serve_rps.wall", float64(closed.ok)/wall, "1/s", closed.ok)
		r.set("peak_rss_mb", mean(rss), len(rss))
		r.keep("peak_rss_mb", rss)
		return nil
	}

	// Traced run: the open loop untraced (two fifths of the phase, for the
	// p99) and traced (trace.overhead), the in-process Route.Predict at the
	// same rate, then the closed loop with the route's batcher and
	// admission counters read around it.
	fifth := e.window / 5
	base := openLoop(e, root, "", sc.rate, 2*fifth, post)
	traced := openLoop(e, root, "POST /predict", sc.rate, fifth, post)
	inproc := openLoop(e, root, "serve.Route.Predict", sc.rate, fifth, func(i int) func() error {
		k := i % len(want)
		out, err := st.route.Predict(ctx, test.Records[k])
		return func() error {
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(out, want[k]) {
				return fmt.Errorf("Route.Predict %d differs from TransformBatch", k)
			}
			return nil
		}
	})
	before := st.srv.RouteStats("amazon")
	closed := closedLoop(e, root, "POST /predict", fifth, post)
	after := st.srv.RouteStats("amazon")
	for _, lr := range []loadResult{base, traced, inproc, closed} {
		lr.record(r)
	}
	batches := statInt(after, "batches") - statInt(before, "batches")
	records := statInt(after, "records") - statInt(before, "records")
	if batches > 0 {
		r.set("serve.mean_batch", float64(records)/float64(batches), int(batches))
	} else {
		r.set("serve.mean_batch", 0, 0)
	}
	r.set("serve.shed", float64(st.route.Shed()), base.ok+traced.ok+closed.ok)
	r.set("serve.route_predict_p50_ms", median(inproc.lat), len(inproc.lat))
	r.set("predict.p99_ms", quantile(base.lat, 0.99), len(base.lat))
	r.set("loadgen.late_p99_ms", quantile(base.late, 0.99), len(base.late))
	r.set("trace.overhead", median(traced.lat)/median(base.lat), len(traced.lat))
	decodeProbe(e, root, codec, bodies)
	transformProbe(ctx, e, root, dec, test.Records)
	gemmProbe(e, root)

	// The optimizer, executor and cache layers of the text pipeline, from
	// the traced fits of the fit phase.
	checkTraced(ctx, e, "amazon-serve", refs, tfs, test.Records)
	setFitLayers(e, layers)
	r.set("optimizer.distinct_plans", float64(len(refs.union(tfs))), len(fits.net)+len(layers))
	r.absent("dist.")
	return nil
}

// serveStack is one route on a serve.Server behind a loopback listener.
type serveStack struct {
	srv   *serve.Server
	route *serve.Route[string, []float64]
	ln    net.Listener
	hs    *http.Server
	done  chan struct{}
}

func startServe(f *keystone.Fitted[string, []float64], codec serve.TextCodec) (*serveStack, error) {
	srv := serve.NewServer()
	route, err := serve.Register(srv, "amazon", f, codec)
	if err != nil {
		srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	st := &serveStack{srv: srv, route: route, ln: ln, hs: &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second}, done: make(chan struct{})}
	go func() {
		defer close(st.done)
		st.hs.Serve(ln) //nolint:errcheck // returns http.ErrServerClosed on close
	}()
	return st, nil
}

func (st *serveStack) addr() string { return st.ln.Addr().String() }

func (st *serveStack) close() {
	st.hs.Close()
	<-st.done
	st.srv.Close()
}

// statInt reads a batcher counter from Server.RouteStats.
func statInt(stats map[string]any, key string) int64 {
	n, _ := stats[key].(int64) // the batcher counters are int64; a missing one reads 0
	return n
}

// sender issues request i and returns the check of its response, which
// the load generator runs after it has stamped the completion time.
type sender func(i int) (verify func() error)

func httpSender(client *http.Client, url string, bodies [][]byte, expected []serve.Prediction) sender {
	return func(i int) func() error {
		k := i % len(bodies)
		resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[k]))
		if err != nil {
			return func() error { return err }
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		return func() error {
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
			}
			var got serve.Prediction
			if err := json.Unmarshal(body, &got); err != nil {
				return err
			}
			if !reflect.DeepEqual(got, expected[k]) {
				return fmt.Errorf("response for record %d differs from TransformBatch", k)
			}
			return nil
		}
	}
}

// loadResult is what one load phase measured, in milliseconds.
type loadResult struct {
	lat, late []float64
	checks    []func() error // response checks, run by settle
	ok, bad   int
	firstErr  error
}

func (lr *loadResult) merge(o loadResult) {
	lr.lat = append(lr.lat, o.lat...)
	lr.late = append(lr.late, o.late...)
	lr.ok += o.ok
	lr.bad += o.bad
	if lr.firstErr == nil {
		lr.firstErr = o.firstErr
	}
}

// record counts every request as an attempted operation.
func (lr loadResult) record(r *recorder) {
	r.attempted += lr.ok + lr.bad
	if lr.bad > 0 {
		r.failed += lr.bad
		r.failures = append(r.failures, fmt.Sprintf("%d requests failed, first: %v", lr.bad, lr.firstErr))
	}
	if lr.ok+lr.bad == 0 {
		r.check(false, "load phase sent no requests")
	}
}

func (lr *loadResult) observe(verify func() error, due, sent, done time.Time) {
	lr.checks = append(lr.checks, verify)
	lr.lat = append(lr.lat, float64(done.Sub(due))/float64(time.Millisecond))
	lr.late = append(lr.late, float64(sent.Sub(due))/float64(time.Millisecond))
}

// settle runs the response checks once the phase is over, so decoding
// and comparing responses does not allocate while the load runs.
func (lr *loadResult) settle() {
	for _, check := range lr.checks {
		if err := check(); err != nil {
			lr.bad++
			if lr.firstErr == nil {
				lr.firstErr = err
			}
			continue
		}
		lr.ok++
	}
	lr.checks = nil
}

// openLoop sends rate requests per second for d from nproc clients,
// request i being due at start + i/rate whether or not earlier ones have
// returned. Latency is measured from the due time, so a stall also
// delays the requests queued behind it; late is how far behind schedule
// each request was sent. A non-empty name records a span per request.
func openLoop(e *env, parent *span, name string, rate float64, d time.Duration, send sender) loadResult {
	clients := runtime.NumCPU()
	total := int64(rate * d.Seconds())
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	parts := make([]loadResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				var sp *span
				if name != "" {
					sp = e.tr.startLane(name, parent, c+1)
				}
				verify := send(int(i))
				done := time.Now()
				sp.end()
				parts[c].observe(verify, due, sent, done)
			}
		}(c)
	}
	wg.Wait()
	var out loadResult
	for i := range parts {
		parts[i].settle()
		out.merge(parts[i])
	}
	return out
}

// closedLoop runs nproc clients that each send the next request as soon
// as the previous one returns, for d.
func closedLoop(e *env, parent *span, name string, d time.Duration, send sender) loadResult {
	clients := runtime.NumCPU()
	start := time.Now()
	deadline := start.Add(d)
	var next atomic.Int64
	parts := make([]loadResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				t0 := time.Now()
				var sp *span
				if name != "" {
					sp = e.tr.startLane(name, parent, c+1)
				}
				verify := send(int(i))
				done := time.Now()
				sp.end()
				parts[c].observe(verify, t0, t0, done)
			}
		}(c)
	}
	wg.Wait()
	var out loadResult
	for i := range parts {
		parts[i].settle()
		out.merge(parts[i])
	}
	return out
}

// decodeProbe times the route codec's request decoding.
func decodeProbe(e *env, parent *span, codec serve.TextCodec, bodies [][]byte) {
	sp := e.tr.start("serve.TextCodec.DecodeRequest", parent)
	n := 0
	t0 := time.Now()
	var err error
	for time.Since(t0) < 100*time.Millisecond || n < len(bodies) {
		if _, err = codec.DecodeRequest(bodies[n%len(bodies)]); err != nil {
			break
		}
		n++
	}
	d := time.Since(t0)
	sp.end()
	if !e.rec.check(err == nil && n > 0, "decode request: %v", err) {
		e.rec.set("serve.decode_us", 0, 0)
		return
	}
	e.rec.set("serve.decode_us", float64(d)/float64(time.Microsecond)/float64(n), n)
}
