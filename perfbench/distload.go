package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"keystoneml/internal/engine"
	"keystoneml/keystone"
	"keystoneml/keystone/dist"
)

const timitDim = 440

// timitDistFit: repeated dist.Fit of SpeechPipeline (440-d input, random
// features, linear solver) over nproc in-process workers on loopback TCP,
// coordinator Parallelism 1. Real features and a real solver cross the
// wire codec, and the distributed interpreter runs the DAG.
func timitDistFit(ctx context.Context, e *env) error {
	r := e.rec
	sc := e.sc
	train := keystone.SyntheticDenseVectors(sc.timitN, timitDim, sc.timitCls, e.seed)
	test := keystone.SyntheticDenseVectors(sc.testN, timitDim, sc.timitCls, e.seed^testSeedSalt)
	build := func() *keystone.Pipeline[[]float64, []float64] {
		return keystone.SpeechPipeline(keystone.SpeechConfig{InputDim: timitDim, NumFeatures: sc.timitFeat, Iterations: 10, Gamma: 0.003, Seed: 17})
	}
	// Bit-identity with a local fit holds at a fixed physical plan, so
	// both run at LevelPipeline (operator selection times candidates, and
	// its choice may differ between runs) with the same partitioning and
	// a sequential coordinator.
	workers := runtime.NumCPU()
	opts := dist.FitOptions{Parallelism: 1, Partitions: 2 * workers, Level: keystone.LevelPipeline}
	localSpec := fitSpec{level: keystone.LevelPipeline, partitions: 2 * workers, workers: 1}
	root := e.tr.start("timit-dist-fit", nil)
	defer root.end()
	probe := crossoverProbe(e, root)

	// Set-up: start the workers, connect, one warm-up distributed fit;
	// repeated, and all but the last cluster torn down again.
	var cl *testCluster
	defer func() {
		if cl != nil {
			cl.close()
		}
	}()
	var setups timings
	n := sc.setups
	if e.traced() {
		n = 1
	}
	for i := 0; i < n; i++ {
		if cl != nil {
			cl.close()
		}
		sp := e.tr.start("setup", root)
		sw := startWatch()
		var err error
		cl, err = startCluster(workers, e.traced())
		if err != nil {
			sp.end()
			return err
		}
		_, _, err = dist.Fit(ctx, cl.direct, build(), train.Records, train.Labels, opts)
		setups.add(sw.stop())
		sp.end()
		if !r.check(err == nil, "warm-up dist fit: %v", err) {
			return fmt.Errorf("warm-up dist fit: %w", err)
		}
	}
	r.setTime("setup_s", setups, probe)
	p := build()
	releaseSetup()

	// The measured phase. The traced run alternates fits over the direct
	// connections with fits through the byte-counting relays.
	var times timings
	var allocs, rss, relayed, sent, recv, modeled []float64
	var last *keystone.Fitted[[]float64, []float64]
	recoveries := 0
	plans := map[string]bool{}
	serving := newServingProbe(test)
	deadline := time.Now().Add(e.window)
	for i := 0; i < sc.minFits || time.Now().Before(deadline); i++ {
		a0 := allocBytes()
		peak := watchRSS()
		sw := startWatch()
		f, rep, err := dist.Fit(ctx, cl.direct, p, train.Records, train.Labels, opts)
		wall, net := sw.stop()
		rss = append(rss, peak())
		a1 := allocBytes()
		if !r.check(err == nil, "dist fit %d: %v", i, err) {
			continue
		}
		times.add(wall, net)
		allocs = append(allocs, float64(a1-a0)/mb)
		recoveries += rep.Recoveries
		plans[strings.Join(rep.CacheSet, ",")] = true
		last = f
		if !e.traced() {
			serving.sample(ctx, f, samplesPerFit)
			continue
		}
		s0, v0 := cl.sent(), cl.recv()
		sp := e.tr.start("dist.Fit(relayed)", root)
		t0 := time.Now()
		_, rep, err = dist.Fit(ctx, cl.relayed, p, train.Records, train.Labels, opts)
		d := time.Since(t0)
		sp.end()
		if !r.check(err == nil, "relayed dist fit %d: %v", i, err) {
			continue
		}
		relayed = append(relayed, d.Seconds())
		sent = append(sent, float64(cl.sent()-s0)/mb)
		recv = append(recv, float64(cl.recv()-v0)/mb)
		modeled = append(modeled, rep.ModeledMakespan/rep.TrainTime.Seconds())
		recoveries += rep.Recoveries
		plans[strings.Join(rep.CacheSet, ",")] = true
	}
	if last == nil {
		return errors.New("no dist fit succeeded")
	}
	r.check(recoveries == 0, "dist fits recovered from %d worker failures on a clean loopback cluster", recoveries)
	r.setTime("fit_s", times, timings{})
	r.set("fit_alloc_mb", median(allocs), len(allocs))
	got := serving.report(ctx, e, "timit-dist-fit", last)

	// Bit-identity gate, outside the timed fits: the distributed model
	// predicts exactly what a local keystone.Fit at the same level does.
	local, err := p.Fit(ctx, train.Records, train.Labels, localSpec.options()...)
	if r.check(err == nil, "local reference fit: %v", err) {
		want, err := local.TransformBatch(ctx, test.Records)
		r.check(err == nil && reflect.DeepEqual(got, want), "dist.Fit predictions differ from local keystone.Fit")
	}
	r.set("peak_rss_mb", mean(rss), len(rss))
	r.keep("peak_rss_mb", rss)
	if !e.traced() {
		return nil
	}

	r.set("trace.overhead", median(relayed)/median(times.wall), len(relayed))
	r.set("dist.wire_sent_mb", median(sent), len(sent))
	r.set("dist.wire_recv_mb", median(recv), len(recv))
	r.set("dist.modeled_over_measured", median(modeled), len(modeled))
	r.set("dist.recoveries", float64(recoveries), len(times.net)+len(relayed))
	r.set("optimizer.distinct_plans", float64(len(plans)), len(times.net)+len(relayed))
	wireProbe(e, root, cl.direct, train.Records)

	// The optimizer, executor and cache layers of the same pipeline, from
	// one traced local fit checked against keystone.Fit.
	var layers []fitLayers
	tf, l, err := tracedFit(ctx, e.tr, root, p, train.Records, train.Labels, localSpec)
	if r.check(err == nil, "traced local fit: %v", err) {
		want, err := tf.TransformBatch(ctx, test.Records)
		r.check(err == nil && reflect.DeepEqual(got, want), "traced local fit predicts differently from dist.Fit")
		layers = append(layers, l)
	}
	setFitLayers(e, layers)
	gemmProbe(e, root)
	transformProbe(ctx, e, root, last, test.Records)
	artifactProbe(e, root, last)
	r.absent("serve.", "loadgen.")
	return nil
}

// wireProbe measures Cluster.Load and Cluster.Fetch of the workload's
// dense input features over the direct connections, in MB of float64
// payload per second, and checks the fetched records equal the loaded.
func wireProbe(e *env, parent *span, cl *dist.Cluster, records [][]float64) {
	boxed := make([]any, len(records))
	for i, rec := range records {
		boxed[i] = rec
	}
	coll := engine.FromSlice(boxed, 2*cl.Workers())
	payload := float64(len(records)*timitDim*8) / mb
	var loads, fetches []float64
	for rep := 0; rep < 3; rep++ {
		sp := e.tr.start("dist.Cluster.Load", parent)
		t0 := time.Now()
		err := cl.Load("perfbench.features", coll)
		loads = append(loads, payload/time.Since(t0).Seconds())
		sp.end()
		if !e.rec.check(err == nil, "cluster load: %v", err) {
			return
		}
		sp = e.tr.start("dist.Cluster.Fetch", parent)
		t0 = time.Now()
		back, err := cl.Fetch("perfbench.features")
		fetches = append(fetches, payload/time.Since(t0).Seconds())
		sp.end()
		e.rec.check(err == nil && reflect.DeepEqual(back.Collect(), coll.Collect()), "cluster fetch returned other records: %v", err)
		e.rec.check(cl.Free("perfbench.features") == nil, "cluster free failed")
	}
	e.rec.set("dist.load_mb_per_s", median(loads), len(loads))
	e.rec.set("dist.fetch_mb_per_s", median(fetches), len(fetches))
}

// testCluster is nproc in-process workers with a direct coordinator
// connection and, in the traced run, a second one through byte-counting
// relays.
type testCluster struct {
	workers []*dist.Worker
	relays  []*relay
	direct  *dist.Cluster
	relayed *dist.Cluster
}

func startCluster(n int, withRelays bool) (*testCluster, error) {
	tc := &testCluster{}
	var addrs, relayAddrs []string
	for i := 0; i < n; i++ {
		w, err := dist.StartWorker(dist.WorkerOptions{Listen: "127.0.0.1:0"})
		if err != nil {
			tc.close()
			return nil, err
		}
		tc.workers = append(tc.workers, w)
		addrs = append(addrs, w.Addr())
		if withRelays {
			rl, err := startRelay(w.Addr())
			if err != nil {
				tc.close()
				return nil, err
			}
			tc.relays = append(tc.relays, rl)
			relayAddrs = append(relayAddrs, rl.addr())
		}
	}
	var err error
	if tc.direct, err = dist.Connect(addrs...); err != nil {
		tc.close()
		return nil, err
	}
	if withRelays {
		if tc.relayed, err = dist.Connect(relayAddrs...); err != nil {
			tc.close()
			return nil, err
		}
	}
	return tc, nil
}

func (tc *testCluster) sent() (n int64) {
	for _, rl := range tc.relays {
		n += rl.up.Load()
	}
	return n
}

func (tc *testCluster) recv() (n int64) {
	for _, rl := range tc.relays {
		n += rl.down.Load()
	}
	return n
}

// close disconnects the coordinators, stops the relays and the workers,
// and waits for their goroutines.
func (tc *testCluster) close() {
	for _, cl := range []*dist.Cluster{tc.direct, tc.relayed} {
		if cl != nil {
			cl.Close()
		}
	}
	for _, rl := range tc.relays {
		rl.close()
	}
	for _, w := range tc.workers {
		w.Close()
		w.Wait()
	}
}

// relay is a loopback TCP proxy in front of one worker that counts the
// bytes in each direction: up is coordinator to worker, down the reverse.
type relay struct {
	ln       net.Listener
	target   string
	up, down atomic.Int64
	mu       sync.Mutex
	conns    []net.Conn
	wg       sync.WaitGroup
}

func startRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rl := &relay{ln: ln, target: target}
	rl.wg.Add(1)
	go rl.accept()
	return rl, nil
}

func (rl *relay) addr() string { return rl.ln.Addr().String() }

func (rl *relay) accept() {
	defer rl.wg.Done()
	for {
		in, err := rl.ln.Accept()
		if err != nil {
			return // listener closed
		}
		out, err := net.Dial("tcp", rl.target)
		if err != nil {
			in.Close()
			continue
		}
		rl.mu.Lock()
		rl.conns = append(rl.conns, in, out)
		rl.mu.Unlock()
		rl.wg.Add(2)
		go rl.pipe(out, in, &rl.up)
		go rl.pipe(in, out, &rl.down)
	}
}

// pipe copies src to dst, counting bytes; when either side ends it
// closes both, which ends the opposite pipe too.
func (rl *relay) pipe(dst, src net.Conn, n *atomic.Int64) {
	defer rl.wg.Done()
	io.Copy(dst, countingReader{src, n}) //nolint:errcheck // ends when either side closes
	dst.Close()
	src.Close()
}

func (rl *relay) close() {
	rl.ln.Close()
	rl.mu.Lock()
	for _, c := range rl.conns {
		c.Close()
	}
	rl.mu.Unlock()
	rl.wg.Wait()
}

type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c countingReader) Read(p []byte) (int, error) {
	k, err := c.r.Read(p)
	c.n.Add(int64(k))
	return k, err
}
