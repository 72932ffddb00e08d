package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acesim/internal/scenario"
	"acesim/internal/scenario/runner"
)

// fastScenario expands to 6 cheap analytic collective units.
const fastScenario = `{
  "name": "fast",
  "platform": {"toruses": ["4"], "presets": ["ACE"], "engine": "analytic"},
  "jobs": [{"kind": "collective", "payload_bytes": [4096, 8192, 16384, 32768, 65536, 131072]}]
}`

// slowScenario expands to 4 full-DES collective units on the 16-NPU
// torus — each takes long enough that a test can act mid-sweep.
const slowScenario = `{
  "name": "slow",
  "platform": {"toruses": ["4x2x2"], "presets": ["ACE"]},
  "jobs": [{"kind": "collective", "payloads_mb": [4, 5, 6, 7]}]
}`

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.Version == "" {
		cfg.Version = "test-v"
	}
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

func drainServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// directBody renders the json-lines body a fresh uncached run of src
// must produce.
func directBody(t *testing.T, src string) []byte {
	t.Helper()
	sc, err := scenario.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(sc, runner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, ur := range res.Units {
		line, err := runner.MarshalUnitLine(ur)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestServerConcurrentClients floods one daemon with overlapping
// submissions of the same sweep from concurrent clients and requires
// every returned body — computed, joined in flight, or cached — to be
// byte-identical to a direct runner.Run of the same file.
func TestServerConcurrentClients(t *testing.T) {
	want := directBody(t, fastScenario)
	s := startServer(t, Config{Workers: 4})
	defer drainServer(t, s)
	base := "http://" + s.Addr()
	client := &http.Client{Timeout: 60 * time.Second}

	const clients = 8
	bodies := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			var retried atomic.Int64
			id, err := submitWithRetry(ctx, client, base, []byte(fastScenario), &retried)
			if err == nil {
				_, err = waitDone(ctx, client, base, id)
			}
			if err == nil {
				bodies[c], err = fetchResults(ctx, client, base, id)
			}
			errs[c] = err
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		if !bytes.Equal(bodies[c], want) {
			t.Errorf("client %d: body differs from direct runner output\n got %q\nwant %q", c, bodies[c], want)
		}
	}
	hits, misses, entries := s.cache.Stats()
	if misses != 6 || entries != 6 {
		t.Errorf("cache computed %d units into %d entries, want 6 distinct units", misses, entries)
	}
	if want := int64(clients*6 - 6); hits != want {
		t.Errorf("cache hits = %d, want %d (every non-first request of a key)", hits, want)
	}
}

// TestServerBackpressure fills a tiny queue and requires the overflow
// submission to come back 429 + Retry-After promptly — never blocking.
// The client then resubmits it through submitWithRetry, which must
// sleep out at least one 429 and get the job accepted and finished with
// the same body as a direct run.
func TestServerBackpressure(t *testing.T) {
	want := directBody(t, slowScenario)
	s := startServer(t, Config{Workers: 1, QueueUnits: 4, RetryAfter: 2 * time.Second})
	defer drainServer(t, s)
	base := "http://" + s.Addr()
	client := &http.Client{Timeout: 10 * time.Second}

	submit := func() (*http.Response, error) {
		return client.Post(base+"/v1/scenarios", "application/json", strings.NewReader(slowScenario))
	}
	first, err := submit()
	if err != nil {
		t.Fatal(err)
	}
	first.Body.Close()
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission: %s, want 202", first.Status)
	}
	// The 4 units of the first job occupy the whole queue (at most one
	// has been claimed); a second 4-unit submission must overflow.
	second, err := submit()
	if err != nil {
		t.Fatal(err)
	}
	defer second.Body.Close()
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: %s, want 429", second.Status)
	}
	if ra := second.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}

	ctx := context.Background()
	var retried atomic.Int64
	id, err := submitWithRetry(ctx, client, base, []byte(slowScenario), &retried)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if retried.Load() < 1 {
		t.Errorf("resubmit counted %d retries, want at least one 429 slept out", retried.Load())
	}
	st, err := waitDone(ctx, client, base, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("resubmitted job ended %s: %s", st.State, st.Error)
	}
	body, err := fetchResults(ctx, client, base, id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("resubmitted body differs from direct runner output\n got %q\nwant %q", body, want)
	}
}

// TestServerShutdownDrain interrupts a single-worker sweep mid-flight
// and requires (a) the in-flight unit to finish, (b) the job to end
// canceled with its completed count intact, and (c) the open result
// stream to deliver exactly the completed prefix, byte-identical to a
// direct run — no completed unit is lost.
func TestServerShutdownDrain(t *testing.T) {
	want := directBody(t, slowScenario)
	wantLines := bytes.Split(bytes.TrimSuffix(want, []byte("\n")), []byte("\n"))

	s := startServer(t, Config{Workers: 1})
	base := "http://" + s.Addr()
	client := &http.Client{Timeout: 60 * time.Second}
	ctx := context.Background()
	var retried atomic.Int64
	id, err := submitWithRetry(ctx, client, base, []byte(slowScenario), &retried)
	if err != nil {
		t.Fatal(err)
	}

	// Open the result stream before the drain; it must terminate with
	// the completed prefix instead of blocking the shutdown.
	type streamOut struct {
		body []byte
		err  error
	}
	streamCh := make(chan streamOut, 1)
	go func() {
		b, err := fetchResults(ctx, client, base, id)
		streamCh <- streamOut{b, err}
	}()

	// Wait for at least one completed unit so the drain is mid-sweep.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, ok := s.Status(id)
		if !ok {
			t.Fatal("job vanished")
		}
		if st.Completed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no unit completed within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	drainServer(t, s)

	st, ok := s.Status(id)
	if !ok {
		t.Fatal("job vanished after drain")
	}
	if st.Completed < 1 {
		t.Fatalf("drain lost completed units: completed = %d", st.Completed)
	}
	if st.State == "done" {
		// The whole sweep beat the drain — nothing to cancel; the body
		// must then be complete.
		st.Completed = len(wantLines)
	} else if st.State != "canceled" {
		t.Fatalf("state = %q, want canceled (or done)", st.State)
	}
	out := <-streamCh
	if out.err != nil {
		t.Fatalf("result stream: %v", out.err)
	}
	var wantBody bytes.Buffer
	for _, l := range wantLines[:st.Completed] {
		wantBody.Write(l)
		wantBody.WriteByte('\n')
	}
	if !bytes.Equal(out.body, wantBody.Bytes()) {
		t.Errorf("drained stream is not the completed prefix\n got %q\nwant %q", out.body, wantBody.Bytes())
	}
	// Draining servers refuse new work with 503.
	resp, err := client.Post(base+"/v1/scenarios", "application/json", strings.NewReader(fastScenario))
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("post-drain submission: %s, want 503", resp.Status)
		}
	}
}

// TestSmokeRoundTrip runs the `make serve-smoke` substance in-process:
// the second identical submission must be all cache hits with a
// byte-identical body.
func TestSmokeRoundTrip(t *testing.T) {
	s := startServer(t, Config{Workers: 2})
	defer drainServer(t, s)
	rep, err := Smoke(context.Background(), "http://"+s.Addr(), []byte(fastScenario))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Units != 6 || rep.SecondHits != 6 || !rep.Identical {
		t.Fatalf("smoke report %+v, want 6 units, 6 second-run hits, identical bodies", rep)
	}
}

// TestReadyClosedBeforeDone pins the result-stream ordering contract:
// every unit's ready channel is closed by the time the job's done
// channel is, so a stream that wakes on done never mistakes a finished
// job for a canceled one. Many small all-cache-hit jobs race their
// result streams against the workers finishing them.
func TestReadyClosedBeforeDone(t *testing.T) {
	s := startServer(t, Config{Workers: 2, QueueUnits: 1 << 20})
	defer drainServer(t, s)
	sc, err := scenario.Parse(strings.NewReader(fastScenario))
	if err != nil {
		t.Fatal(err)
	}
	units, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(units))
	for i, u := range units {
		if keys[i], err = UnitKey(u, false, s.version); err != nil {
			t.Fatal(err)
		}
	}
	submit := func() *job {
		j, err := s.admit(sc, units, keys)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	<-submit().done // warm the cache: every later unit is a hit

	jobs := 3000
	if testing.Short() {
		jobs = 500
	}
	for n := 0; n < jobs; n++ {
		j := submit()
		early := make(chan int, 1)
		go func() {
			<-j.done
			open := 0
			for _, st := range j.states {
				select {
				case <-st.ready:
				default:
					open++
				}
			}
			early <- open
		}()
		rec := httptest.NewRecorder()
		s.streamJSONL(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.id+"/results", nil), j)
		if open := <-early; open != 0 {
			t.Fatalf("job %d: %d unit(s) not ready when done closed", n, open)
		}
		if lines := strings.Count(rec.Body.String(), "\n"); lines != len(units) {
			t.Fatalf("job %d: stream carried %d lines, want %d", n, lines, len(units))
		}
	}
}

// TestServerRelativeAssertions evaluates assertions on a relative metric:
// the daemon computes it on copies of the cached metrics when the job
// finishes, so the assertion sees it while the streamed json-lines do
// not carry it.
func TestServerRelativeAssertions(t *testing.T) {
	const src = `{
	  "name": "rel",
	  "platform": {"toruses": ["4"], "presets": ["ACE", "Ideal"]},
	  "jobs": [{"kind": "collective", "payload_bytes": [4096, 65536]}],
	  "relative": [{"name": "vs_ace", "metric": "duration_us", "presets": ["ACE"]}],
	  "assertions": [
	    {"metric": "vs_ace", "op": "==", "value": 1, "preset": "ACE"},
	    {"metric": "vs_ace", "op": ">", "value": 1e9, "preset": "ACE"}
	  ]
	}`
	s := startServer(t, Config{Workers: 2})
	defer drainServer(t, s)
	base := "http://" + s.Addr()
	client := &http.Client{Timeout: 60 * time.Second}
	ctx := context.Background()
	var retried atomic.Int64
	id, err := submitWithRetry(ctx, client, base, []byte(src), &retried)
	if err != nil {
		t.Fatal(err)
	}
	st, err := waitDone(ctx, client, base, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || len(st.Failures) != 2 {
		t.Fatalf("status %+v, want done with the two ACE units violating the second assertion", st)
	}
	for _, f := range st.Failures {
		if !strings.HasPrefix(f, "vs_ace > 1e+09 [ACE]: ") || !strings.HasSuffix(f, "vs_ace = 1") {
			t.Errorf("failure %q does not name the relative assertion and value 1", f)
		}
	}
	body, err := fetchResults(ctx, client, base, id)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(body, []byte("vs_ace")) || strings.Count(string(body), "\n") != 4 {
		t.Fatalf("stream must carry the 4 units' own metrics only:\n%s", body)
	}
}
