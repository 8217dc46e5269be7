package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cellnpdp"
	"cellnpdp/internal/serve"
)

// serveClass is one request shape of the serve-mix workload.
type serveClass struct {
	n      int
	double bool
	tiled  bool // engine "tiled": the degraded route
	heal   bool
}

// serveMix is one cycle of the serve-mix workload. Sizes are weighted
// toward small n, where HTTP/JSON, admission, conversion, integrity
// digests and seal CRCs are a large share of a request; a quarter of
// the requests are double precision, a quarter take the tiled route and
// a quarter heal. Every cycle holds each class exactly once, in a
// seeded order, so seeds change the order and the instances but never
// the mix.
//
// The shares put both reported percentiles in the middle of a band of
// alike requests, where a shared host's noise moves them least: the
// n = 256 solves fill the middle half of the latency order around the
// median, and a cycle lasts long enough (about 0.75 s on a quiet 2-core
// x86-64 host) that a 20 s run holds twenty to thirty n = 1024 solves,
// the band whose middle holds the tail.
var serveMix = []serveClass{
	{n: 128, double: true, tiled: true},
	{n: 128, double: true, tiled: true},
	{n: 128, double: true, tiled: true},
	{n: 128, double: true, heal: true},
	{n: 128, double: true, heal: true},
	{n: 128, double: true, heal: true},
	{n: 128, double: true, heal: true},
	{n: 128, double: true, heal: true},
	{n: 128, double: true, heal: true},
	{n: 128, double: true},
	{n: 128, double: true},
	{n: 128, double: true},
	{n: 256, heal: true},
	{n: 256, heal: true},
	{n: 256, heal: true},
	{n: 256},
	{n: 256},
	{n: 256},
	{n: 256},
	{n: 256},
	{n: 256},
	{n: 256},
	{n: 256},
	{n: 256},
	{n: 256},
	{n: 256},
	{n: 256},
	{n: 256},
	{n: 256},
	{n: 256},
	{n: 256},
	{n: 256},
	{n: 256},
	{n: 256},
	{n: 256},
	{n: 256},
	{n: 512, tiled: true},
	{n: 512, tiled: true},
	{n: 512, tiled: true},
	{n: 512, tiled: true},
	{n: 512, tiled: true},
	{n: 512, tiled: true},
	{n: 512, tiled: true},
	{n: 512, tiled: true},
	{n: 512, tiled: true},
	{n: 512, heal: true},
	{n: 512, heal: true},
	{n: 1024, heal: true},
}

// serveRef is one class's instance with its serial reference.
type serveRef struct {
	class serveClass
	seed  int64
	crc   string // serve.DigestTable of the reference, as the response prints it
	f32   *instance[float32]
	f64   *instance[float64]
}

// digestOf returns the whole-table CRC32C of the solved reference, in
// the response's format. The reference is copied into a public-API
// table because that is what serve.DigestTable digests.
func digestOf[E cellnpdp.Elem](in *instance[E], corrupt bool) (string, error) {
	t, err := cellnpdp.NewTable[E](in.n)
	if err != nil {
		return "", err
	}
	for i := 0; i < in.n; i++ {
		for j := i; j < in.n; j++ {
			if err := t.Set(i, j, in.ref.At(i, j)); err != nil {
				return "", err
			}
		}
	}
	if corrupt {
		flipTable(t)
	}
	d, err := serve.DigestTable(t, 0)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%08x", d.Whole), nil
}

// serveEnv is the serve-mix set-up: every class's reference and the
// server behind a loopback HTTP listener.
type serveEnv struct {
	refs []serveRef
	srv  *serve.Server
	hs   *httptest.Server
}

// newServeEnv builds every class's instance and serial reference, then
// starts the server.
func newServeEnv(cfg config) (*serveEnv, error) {
	env := &serveEnv{}
	for k, c := range serveMix {
		r := serveRef{class: c, seed: cfg.seed*1000 + int64(k)}
		var err error
		if c.double {
			if r.f64, err = newInstance[float64](c.n, r.seed); err == nil {
				r.crc, err = digestOf(r.f64, k == 0 && cfg.corrupts(0))
			}
		} else {
			if r.f32, err = newInstance[float32](c.n, r.seed); err == nil {
				r.crc, err = digestOf(r.f32, k == 0 && cfg.corrupts(0))
			}
		}
		if err != nil {
			return nil, err
		}
		env.refs = append(env.refs, r)
	}
	env.srv = serve.New(serve.Config{Workers: cfg.workers})
	env.hs = httptest.NewServer(env.srv.Handler())
	return env, nil
}

// close drains the server — admission stops, in-flight solves finish —
// then closes the listener.
func (e *serveEnv) close() {
	e.srv.Drain()
	e.srv.Wait()
	e.hs.Close()
}

// request is one request of the loop and what came back.
type request struct {
	ref *serveRef
	// lat runs from the send to the last byte of the response; on the
	// open loop it runs from the scheduled send time, and late is how far
	// behind that time the generator sent it.
	lat, late float64
	code      int
	resp      serve.SolveResponse
	err       error
	// wrong reports a 200 whose answer is not the reference's.
	wrong error
}

// loopResult tallies one loop's timed requests.
type loopResult struct {
	reqs  []request
	lat   []float64 // seconds of the good requests
	timed float64   // their sum
	relax int64
}

// runLoop sends the mix's requests back to back over one keep-alive
// connection: one untimed warm-up cycle, then whole cycles, each in an
// order drawn from seed, until d has elapsed. Only the timed cycles'
// requests land in the result; every request, the warm-up's too, is
// verified and tallied. Between cycles, outside any request, the loop
// collects garbage and returns freed memory to the OS, as the batch
// workloads do between solves, so peak RSS does not depend on when the
// collector last ran.
//
// The loop is closed — a request is sent when the previous answer has
// arrived — so each latency is the server's own cost for that request.
// An open loop of Poisson arrivals over the same mix leaves the cores
// idle between requests. On a shared 2-core host the latency of a
// request sent after an idle gap is then bimodal, the slow mode about
// 1.5 times the fast one, and the share in each mode changes from run
// to run; both percentiles sat at the boundary of the two modes and
// moved by up to 28% between runs.
func runLoop(ctx context.Context, env *serveEnv, t *tally, seed int64, d time.Duration) loopResult {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	rng := rand.New(rand.NewSource(seed))
	cycle := func() []request {
		reqs := make([]request, len(env.refs))
		for k, p := range rng.Perm(len(env.refs)) {
			reqs[k].ref = &env.refs[p]
			send(ctx, client, env, &reqs[k])
		}
		return reqs
	}

	debug.FreeOSMemory()
	warm := cycle()
	var lr loopResult
	start := time.Now()
	for ctx.Err() == nil && (len(lr.reqs) == 0 || time.Since(start) < d) {
		debug.FreeOSMemory()
		lr.reqs = append(lr.reqs, cycle()...)
	}

	tallyRequests(t, warm)
	lr.add(t, lr.reqs)
	return lr
}

// tallyRequests counts reqs in t and reports whether each was good.
func tallyRequests(t *tally, reqs []request) []bool {
	good := make([]bool, len(reqs))
	for i, r := range reqs {
		t.attempted++
		switch {
		case r.err != nil:
			t.fail(i, r.err)
		case r.wrong != nil:
			t.mismatch(i, r.wrong)
		default:
			good[i] = true
		}
	}
	return good
}

// add tallies reqs and records the good ones' times and work.
func (lr *loopResult) add(t *tally, reqs []request) {
	for i, ok := range tallyRequests(t, reqs) {
		if ok {
			lr.lat = append(lr.lat, reqs[i].lat)
			lr.timed += reqs[i].lat
			lr.relax += reqs[i].resp.Relaxations
		}
	}
}

// openLoop sends one cycle of the mix, in an order drawn from seed, at
// Poisson arrival times over d (uniform times conditioned on the count),
// from cfg.workers generator goroutines over as many connections. Each
// request is timed from its scheduled send time, so a generator or
// server that falls behind shows in the latency. The traced run uses it
// to show what the closed loop leaves out: waiting in the admission
// queue, the generator's lateness, and the cost of starting on idle
// cores.
func openLoop(ctx context.Context, cfg config, env *serveEnv, t *tally, seed int64, d time.Duration) loopResult {
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, len(env.refs))
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(d))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	reqs := make([]request, len(env.refs))
	for k, p := range rng.Perm(len(env.refs)) {
		reqs[k].ref = &env.refs[p]
	}

	tr := &http.Transport{MaxConnsPerHost: cfg.workers, MaxIdleConnsPerHost: cfg.workers}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	debug.FreeOSMemory()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < cfg.workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				at := start.Add(due[i])
				time.Sleep(time.Until(at))
				r := &reqs[i]
				r.late = time.Since(at).Seconds()
				send(ctx, client, env, r)
				r.lat += r.late
			}
		}()
	}
	wg.Wait()
	var lr loopResult
	lr.reqs = reqs
	lr.add(t, reqs)
	return lr
}

// send posts r and verifies the answer: a 200 whose integrity digest
// matches the serial reference's.
func send(ctx context.Context, client *http.Client, env *serveEnv, r *request) {
	c := r.ref.class
	body := serve.SolveRequest{N: c.n, Seed: r.ref.seed, Heal: c.heal}
	if c.double {
		body.Precision = "double"
	}
	if c.tiled {
		body.Engine = "tiled"
	}
	payload, err := json.Marshal(body)
	if err != nil {
		r.err = err
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, env.hs.URL+"/solve", bytes.NewReader(payload))
	if err != nil {
		r.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	sent := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		r.err = err
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.lat = time.Since(sent).Seconds()
	r.code = resp.StatusCode
	if err != nil {
		r.err = err
		return
	}
	if r.code != http.StatusOK {
		r.err = fmt.Errorf("status %d: %s", r.code, bytes.TrimSpace(raw))
		return
	}
	if err := json.Unmarshal(raw, &r.resp); err != nil {
		r.err = fmt.Errorf("decoding response: %w", err)
		return
	}
	switch {
	case r.resp.N != c.n:
		r.wrong = fmt.Errorf("response is for n=%d, asked n=%d", r.resp.N, c.n)
	case !r.resp.Integrity.CRCOK || !r.resp.Integrity.ResidualOK:
		r.wrong = fmt.Errorf("server reports integrity failure: %+v", r.resp.Integrity)
	case r.resp.Integrity.CRC32C != r.ref.crc:
		r.wrong = fmt.Errorf("n=%d double=%v: table digest %s, serial reference %s",
			c.n, c.double, r.resp.Integrity.CRC32C, r.ref.crc)
	}
}

func runServeMix(ctx context.Context, cfg config, traced bool) (*report, error) {
	base := runtime.NumGoroutine()
	env, release, setupS, err := timedSetup(setupReps, func() (*serveEnv, func(), error) {
		env, err := newServeEnv(cfg)
		if err != nil {
			return nil, nil, err
		}
		return env, env.close, nil
	})
	if err != nil {
		return nil, err
	}
	var t tally
	if !traced {
		lr := runLoop(ctx, env, &t, cfg.seed, cfg.duration)
		release()
		t.leak(settle(base, 5*time.Second))
		vals, err := endToEndValues("serve-mix", setupS, lr.lat, lr.relax, lr.timed, &t)
		if err != nil {
			return nil, err
		}
		return newReport(&t, endToEnd, vals), nil
	}

	// The serve layer is observed through response fields every loop
	// reads; the traced loop differs from the untraced one only in what
	// it records, and trace.overhead_ratio compares their medians.
	untraced := runLoop(ctx, env, &t, cfg.seed, scale(cfg.duration, 0.25))
	tracedLoop := runLoop(ctx, env, &t, cfg.seed+1, scale(cfg.duration, 0.3))
	open := openLoop(ctx, cfg, env, &t, cfg.seed+2, scale(cfg.duration, 0.2))
	release()
	vals := map[string]float64{}
	serveLayers(vals, tracedLoop, open)
	var agg ledgerAgg
	replayMix(ctx, cfg, env.refs, &t, scale(cfg.duration, 0.25), &agg)
	t.leak(settle(base, 5*time.Second))
	agg.put(vals)
	if b := median(untraced.lat); b > 0 {
		vals["trace.overhead_ratio"] = median(tracedLoop.lat) / b
		if p := vals["perfmodel.pred_s"]; p > 0 {
			vals["perfmodel.ratio"] = b / p
		}
	}
	vals["trace.ops"] = float64(len(tracedLoop.lat))
	return newReport(&t, perLayer, vals), nil
}

// serveLayers writes the serve and model metrics of the traced closed
// loop, and the queueing and lateness figures of the open loop.
func serveLayers(vals map[string]float64, lr, open loopResult) {
	var queue, late []float64
	for _, r := range open.reqs {
		late = append(late, r.late)
		if r.err == nil && r.wrong == nil {
			queue = append(queue, r.resp.QueueSeconds)
		}
	}
	vals["serve.queue_s_p50"] = median(queue)
	if v, _, ok := tail(queue); ok {
		vals["serve.queue_s_tail"] = v
	}
	vals["serve.open_s_p50"] = median(open.lat)
	if v, _, ok := tail(open.lat); ok {
		vals["serve.open_s_tail"] = v
	}
	vals["serve.gen_late_s_max"] = slices.Max(late)

	var solve, overhead, model, pred []float64
	for i := range lr.reqs {
		r := &lr.reqs[i]
		switch r.code {
		case 200, 413, 429, 500, 503:
			vals[fmt.Sprintf("serve.status_%d", r.code)]++
		default:
			vals["serve.status_other"]++
		}
		if r.err != nil || r.wrong != nil {
			continue
		}
		solve = append(solve, r.resp.WallSeconds)
		overhead = append(overhead, r.lat-r.resp.QueueSeconds-r.resp.WallSeconds)
		pred = append(pred, r.resp.PredictedSeconds)
		if r.resp.PredictedSeconds > 0 {
			model = append(model, r.resp.WallSeconds/r.resp.PredictedSeconds)
		}
	}
	vals["serve.solve_s_p50"] = median(solve)
	vals["serve.overhead_s_p50"] = median(overhead)
	vals["serve.model_ratio_p50"] = median(model)
	vals["perfmodel.pred_s"] = median(pred)
}

// replayMix solves the mix's instances locally through the traced
// pipeline, one cycle after another, for d: the per-layer view of the
// solve work the server does for the mix. Tiled requests run on one
// worker, heal requests digest every completed block.
func replayMix(ctx context.Context, cfg config, refs []serveRef, t *tally, d time.Duration, agg *ledgerAgg) {
	closedLoop(t, d, len(refs), func(i int) opResult {
		r := &refs[i%len(refs)]
		workers := cfg.workers
		if r.class.tiled {
			workers = 1
		}
		// The engines seal blocks only on the parallel route.
		seal := r.class.heal && !r.class.tiled
		if r.class.double {
			return replayOne(ctx, r.f64, workers, seal, agg)
		}
		return replayOne(ctx, r.f32, workers, seal, agg)
	})
}

func replayOne[E cellnpdp.Elem](ctx context.Context, in *instance[E], workers int, seal bool, agg *ledgerAgg) opResult {
	tile, err := tileFor[E]()
	if err != nil {
		return opResult{err: err}
	}
	rm := in.src.Clone()
	debug.FreeOSMemory()
	s, err := ledgerSolve(ctx, rm, tile, workers, seal)
	if err != nil {
		return opResult{err: err}
	}
	agg.add(s)
	return opResult{secs: s.wall, relax: s.relax, mismatch: in.checkRowMajor(rm)}
}
