package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"acesim/internal/scenario"
	"acesim/internal/scenario/runner"
	"acesim/internal/serve"
)

// daemon is an in-process acesim serve daemon on loopback, with the
// warm set prefilled, and the client that drives it.
type daemon struct {
	srv    *serve.Server
	base   string
	client *http.Client
	// probe reads /v1/metrics on its own connection, so polling never
	// takes a connection from the submitters.
	probe *http.Client
}

// clients is the closed loop's submitter count; each waits for its
// submission's last result line before sending the next.
const clients = 2

// startDaemon starts a daemon with workers workers on an ephemeral port.
func startDaemon() (*daemon, error) {
	srv := serve.New(serve.Config{Addr: "127.0.0.1:0", Workers: workers})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	return &daemon{
		srv:    srv,
		base:   "http://" + srv.Addr(),
		client: &http.Client{Transport: tr, Timeout: time.Minute},
		probe:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: time.Minute},
	}, nil
}

// stop drains the daemon and waits for it to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	d.client.CloseIdleConnections()
	d.probe.CloseIdleConnections()
	return err
}

// submission is the client's view of one round trip.
type submission struct {
	status int // HTTP status of the POST, or of the results GET when that failed
	body   []byte
	err    error
	// Phases, in nanoseconds: POST to 202, 202 to the first result
	// line, first to last line.
	submitNs, waitNs, streamNs int64
}

func (s submission) rttNs() int64 { return s.submitNs + s.waitNs + s.streamNs }

// failure describes a failed round trip ("" when it succeeded).
func (s submission) failure() string {
	switch {
	case s.err != nil:
		return s.err.Error()
	case s.status != http.StatusAccepted:
		return fmt.Sprintf("POST /v1/scenarios: HTTP %d", s.status)
	}
	return ""
}

// submit posts one scenario and reads its result stream to the end,
// recording the round trip's phases as spans under parent.
func (d *daemon) submit(rec *recorder, parent int, key string, doc []byte) (s submission) {
	root := rec.begin(parent, "submission", key)
	defer rec.end(root)
	t0 := time.Now()
	sp := rec.begin(root, "http.POST /v1/scenarios", key)
	resp, err := d.client.Post(d.base+"/v1/scenarios", "application/json", bytes.NewReader(doc))
	if err != nil {
		rec.end(sp)
		s.err = err
		return s
	}
	var accepted struct {
		Results string `json:"results"`
	}
	s.status = resp.StatusCode
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	rec.end(sp)
	t1 := time.Now()
	s.submitNs = t1.Sub(t0).Nanoseconds()
	if s.status != http.StatusAccepted {
		return s
	}
	if err != nil {
		s.err = fmt.Errorf("POST /v1/scenarios: %w", err)
		return s
	}
	sp = rec.begin(root, "http.GET results (queue wait)", key)
	resp, err = d.client.Get(d.base + accepted.Results)
	if err != nil {
		rec.end(sp)
		s.err = err
		return s
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadBytes('\n')
	rec.end(sp)
	t2 := time.Now()
	s.waitNs = t2.Sub(t1).Nanoseconds()
	if err != nil {
		s.err = fmt.Errorf("GET %s: first line: %w", accepted.Results, err)
		return s
	}
	sp = rec.begin(root, "http.GET results (stream)", key)
	rest, err := io.ReadAll(br)
	rec.end(sp)
	s.streamNs = time.Since(t2).Nanoseconds()
	if resp.StatusCode != http.StatusOK {
		s.status = resp.StatusCode
	}
	s.body = append(first, rest...)
	s.err = err
	return s
}

// metrics reads GET /v1/metrics.
func (d *daemon) metrics() (serve.Metrics, error) {
	var m serve.Metrics
	resp, err := d.probe.Get(d.base + "/v1/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /v1/metrics: HTTP %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// serveSetup is one set-up of serve-mixed.
type serveSetup struct {
	mix   serveMix
	docs  [][]byte // warm then cold submissions
	p     prepared // the same documents parsed and expanded
	d     *daemon
	units int // units in one pass of the stream
	warm  int // warm units in one pass of the stream
}

// setupServe generates the stream, parses and expands every submission,
// starts a daemon and prefills the warm set. Each prefill round trip
// counts as an operation in t.
func setupServe(t *tally, rec *recorder, seed uint64) (*serveSetup, int64, error) {
	mix := serveMixed(seed)
	all := append(append([]*scenario.Scenario(nil), mix.warm...), mix.cold...)
	docs, err := marshalAll(all)
	if err != nil {
		return nil, 0, err
	}
	p, expandNs, err := prepare(rec, all)
	if err != nil {
		return nil, 0, err
	}
	st := &serveSetup{mix: mix, docs: docs, p: p}
	for _, i := range mix.order {
		st.units += len(p.units[i])
		if i < len(mix.warm) {
			st.warm += len(p.units[i])
		}
	}
	if st.d, err = startDaemon(); err != nil {
		return nil, 0, err
	}
	for i := range mix.warm {
		if f := st.d.submit(nil, 0, "", docs[i]).failure(); f != "" {
			t.op(fmt.Sprintf("prefill %s: %s", mix.warm[i].Name, f))
		} else {
			t.op("")
		}
	}
	return st, expandNs, nil
}

// streamPass is one pass of the stream through a prefilled daemon.
type streamPass struct {
	wall, cpu, heapMB, allocMB float64
	subs                       []submission // in stream order
	hits, misses               int64
	queueMax                   int
}

// runStream drives the stream with a closed loop of clients. With a
// recorder it also polls /v1/metrics for the queue depth.
func (st *serveSetup) runStream(rec *recorder) (streamPass, error) {
	var out streamPass
	before, err := st.d.metrics()
	if err != nil {
		return out, err
	}
	order := st.mix.order
	out.subs = make([]submission, len(order))
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	var queueMax atomic.Int64
	if rec != nil {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			for {
				select {
				case <-stopPoll:
					return
				case <-time.After(2 * time.Millisecond):
				}
				if m, err := st.d.metrics(); err == nil && int64(m.QueueDepth) > queueMax.Load() {
					queueMax.Store(int64(m.QueueDepth))
				}
			}
		}()
	}
	runtime.GC()
	a0 := allocBytes()
	hs := startHeapSampler()
	c0 := cpuSeconds()
	t0 := time.Now()
	root := rec.begin(0, "pass", "serve-mixed")
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				out.subs[i] = st.d.submit(rec, root, fmt.Sprintf("s%d", i), st.docs[order[i]])
			}
		}()
	}
	wg.Wait()
	rec.end(root)
	out.wall = time.Since(t0).Seconds()
	out.cpu = cpuSeconds() - c0
	out.heapMB = hs.Stop()
	out.allocMB = float64(allocBytes()-a0) / (1 << 20)
	close(stopPoll)
	pollWG.Wait()
	out.queueMax = int(queueMax.Load())
	after, err := st.d.metrics()
	if err != nil {
		return out, err
	}
	out.hits, out.misses = after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	return out, nil
}

// expected renders each submission's body from a direct runner.RunOne of
// every unit — what the daemon must return byte for byte.
func expected(p prepared) ([][]byte, [][]runner.UnitResult, error) {
	bodies := make([][]byte, len(p.units))
	results := make([][]runner.UnitResult, len(p.units))
	for i, units := range p.units {
		var b bytes.Buffer
		for _, u := range units {
			ur, err := runner.RunOne(u, p.scs[i].TraceEnabled())
			if err != nil {
				return nil, nil, fmt.Errorf("%s unit %d: %w", p.scs[i].Name, u.Index, err)
			}
			line, err := runner.MarshalUnitLine(ur)
			if err != nil {
				return nil, nil, err
			}
			b.Write(line)
			b.WriteByte('\n')
			results[i] = append(results[i], ur)
		}
		bodies[i] = b.Bytes()
	}
	return bodies, results, nil
}

// serveRun accumulates the passes of one serve-mixed run.
type serveRun struct {
	setupS, walls, cpus, heaps []float64
	rtt                        map[bool][]float64 // by warm, in ms
	submitMs, waitMs           []float64
	streamMs                   []float64
	rejected                   int
	queueMax                   int
	hits, misses               int64
	passes                     [][]submission
}

// addPass checks one stream pass's round trips and keeps its timings.
func (r *serveRun) addPass(t *tally, st *serveSetup, sp streamPass) {
	for i, s := range sp.subs {
		t.op(s.failure())
		if s.status == http.StatusTooManyRequests {
			r.rejected++
		}
		if s.failure() != "" {
			continue
		}
		warm := st.mix.order[i] < len(st.mix.warm)
		r.rtt[warm] = append(r.rtt[warm], float64(s.rttNs())/nsPerMs)
	}
	want := float64(st.warm) / float64(st.units)
	got := ratio(float64(sp.hits), float64(sp.hits+sp.misses))
	t.check(got == want, "pass %d: hit rate %v (%d hits, %d misses), generated warm share %v",
		len(r.passes), got, sp.hits, sp.misses, want)
	r.queueMax = max(r.queueMax, sp.queueMax)
	r.hits += sp.hits
	r.misses += sp.misses
	r.passes = append(r.passes, sp.subs)
}

// measureServe runs serve-mixed: each pass sets up a fresh daemon (so
// the cold half is cold again) and replays the seeded stream through it.
func measureServe(o options, rep *report) error {
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	run := serveRun{rtt: map[bool][]float64{}}
	var lr layerRun
	var last *serveSetup
	deadline := time.Now().Add(o.seconds)
	onePass := func(traced bool) error {
		t0 := time.Now()
		var r *recorder
		if traced {
			r = rec
		}
		st, expandNs, err := setupServe(&rep.t, r, o.seed)
		if err != nil {
			return fmt.Errorf("serve-mixed set-up: %w", err)
		}
		setup := time.Since(t0).Seconds()
		first := 0
		if r != nil {
			first = len(r.snapshot())
		}
		sp, err := st.runStream(r)
		if stopErr := st.d.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return err
		}
		last = st
		if traced {
			lr.walls = append(lr.walls, sp.wall)
			for _, s := range r.snapshot()[first:] {
				switch s.Name {
				case "http.POST /v1/scenarios":
					run.submitMs = append(run.submitMs, float64(s.dur())/nsPerMs)
				case "http.GET results (queue wait)":
					run.waitMs = append(run.waitMs, float64(s.dur())/nsPerMs)
				case "http.GET results (stream)":
					run.streamMs = append(run.streamMs, float64(s.dur())/nsPerMs)
				}
			}
		} else {
			run.setupS = append(run.setupS, setup)
			run.walls = append(run.walls, sp.wall)
			run.cpus = append(run.cpus, sp.cpu)
			run.heaps = append(run.heaps, sp.heapMB)
			lr.untraced = append(lr.untraced, sp.wall)
			lr.allocMB = append(lr.allocMB, sp.allocMB)
		}
		lr.expandMs = append(lr.expandMs, float64(expandNs)/nsPerMs)
		run.addPass(&rep.t, st, sp)
		return nil
	}
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		if err := onePass(false); err != nil {
			return err
		}
		if o.trace {
			if err := onePass(true); err != nil {
				return err
			}
		}
	}
	if err := serveChecks(o, last, &run, &lr, rec, rep); err != nil {
		return err
	}

	rep.set("setup_s", "s", median(run.setupS))
	rep.set("wall_s", "s", median(run.walls))
	rep.set("units_per_s", "units/s", float64(last.units)/median(run.walls))
	rep.set("peak_heap_mb", "MiB", median(run.heaps))
	rep.set("cpu_s", "s", median(run.cpus))
	d := rep.detail
	for _, c := range []struct {
		name string
		warm bool
	}{{"rtt_cold", false}, {"rtt_warm", true}} {
		d[c.name+"_p50_ms"] = median(run.rtt[c.warm])
		d[c.name+"_tail_ms"] = tailOf(run.rtt[c.warm])
	}
	d["passes"] = len(run.walls)
	d["submissions_per_pass"] = len(last.mix.order)
	d["units_per_pass"] = last.units
	d["warm_share"] = fmt.Sprintf("%d warm units / %d units per pass = %.4f", last.warm, last.units, float64(last.warm)/float64(last.units))
	d["wall_s_all"] = run.walls
	if o.trace {
		lr.report(rep)
		d["serve.hit_rate"] = ratio(float64(run.hits), float64(run.hits+run.misses))
		d["serve.hit_rate_base"] = fmt.Sprintf("%d hits / %d units over %d passes", run.hits, run.hits+run.misses, len(run.passes))
		d["serve.rejected"] = run.rejected
		d["serve.queue_depth_max"] = run.queueMax
		d["serve.submit_ms_p50"] = median(run.submitMs)
		d["serve.queue_wait_ms_p50"] = median(run.waitMs)
		d["serve.stream_ms_p50"] = median(run.streamMs)
		rep.spans = rec.snapshot()
	}
	return nil
}

// serveChecks compares every result body with a direct runner.RunOne of
// the same units, evaluates the submissions' assertions, pins the
// default seed's digest and, on a traced run, drives every distinct
// unit call by call for the per-layer counts.
func serveChecks(o options, st *serveSetup, run *serveRun, lr *layerRun, rec *recorder, rep *report) error {
	want, results, err := expected(st.p)
	if err != nil {
		return err
	}
	for pi, subs := range run.passes {
		for i, s := range subs {
			if s.failure() != "" {
				continue
			}
			doc := st.mix.order[i]
			rep.t.check(bytes.Equal(s.body, want[doc]), "pass %d submission %d (%s): body differs from runner.RunOne:\n%s\nwant:\n%s",
				pi, i, st.p.scs[doc].Name, s.body, want[doc])
		}
	}
	names := make([]string, len(want))
	docs := make([]string, len(want))
	for i := range want {
		names[i], docs[i] = st.p.scs[i].Name, string(want[i])
		for _, a := range runner.Evaluate(st.p.scs[i].Assertions, results[i]) {
			rep.t.check(a.OK(), "%s: assertion %s: %v", names[i], a.Assertion, a.Violations)
		}
	}
	got := digest(names, docs)
	rep.detail["digest"] = got
	if o.seed == defaultSeed {
		rep.t.check(got == digests["serve-mixed"], "serve-mixed seed %d: results digest %s, recorded %s", o.seed, got, digests["serve-mixed"])
	}
	if rec == nil {
		return nil
	}
	// The per-layer pass: every distinct unit of the stream, driven on
	// the benchmark's own pool, checked against runner.RunOne.
	metrics := make([][]map[string]float64, len(results))
	for i, urs := range results {
		for _, ur := range urs {
			metrics[i] = append(metrics[i], ur.Metrics)
		}
	}
	for pass := 0; pass < minPasses; pass++ {
		tracedPass(rec, "serve-mixed units", st.p, metrics, lr, &rep.t)
		t0 := time.Now()
		for _, urs := range results {
			for _, ur := range urs {
				if _, err := runner.MarshalUnitLine(ur); err != nil {
					return err
				}
			}
		}
		lr.renderMs = append(lr.renderMs, float64(time.Since(t0).Nanoseconds())/nsPerMs)
	}
	return nil
}
