package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"acesim/internal/scenario"
	"acesim/internal/scenario/runner"
)

// Config tunes the daemon.
type Config struct {
	// Addr is the listen address (host:port); empty means ":8080". Use
	// "127.0.0.1:0" for an ephemeral test port (read it back via Addr).
	Addr string
	// Workers bounds the shared worker pool executing units from all
	// queued scenarios; <= 0 means GOMAXPROCS.
	Workers int
	// QueueUnits bounds the submission queue: the number of accepted
	// but not yet started work units across all jobs. A submission that
	// would push past the bound is rejected with 429 + Retry-After.
	// <= 0 means 4096.
	QueueUnits int
	// RetryAfter is the backoff hint returned with 429; 0 means 1s.
	RetryAfter time.Duration
	// Version overrides the cache-key code stamp (tests pin it; the
	// daemon defaults to SchemaVersion + the VCS revision).
	Version string
}

// unitState tracks one work unit of one job. ready is closed exactly
// once, after metrics/err/hit are set.
type unitState struct {
	key     string
	ready   chan struct{}
	metrics map[string]float64 // read-only once set
	err     error
	hit     bool
}

// job is one accepted submission: a parsed scenario expanded into units,
// scheduled round-robin against every other active job.
type job struct {
	id     string
	sc     *scenario.Scenario
	units  []scenario.Unit
	traced bool
	states []*unitState

	// Guarded by Server.mu.
	next      int // next unclaimed unit
	completed int // units finished (hit, computed, or errored)
	hits      int
	errs      int
	firstErr  string
	canceled  bool
	done      chan struct{} // closed when completed==len(units) or canceled
	failures  []string      // assertion violations, evaluated once done
	evaluated bool
}

// results pairs every finished unit with a copy of its metrics plus the
// relative ones, which cached maps and streamed json-lines never carry.
func (j *job) results() []runner.UnitResult {
	urs := make([]runner.UnitResult, len(j.units))
	for i := range j.units {
		urs[i] = runner.UnitResult{Unit: j.units[i], Metrics: maps.Clone(j.states[i].metrics)}
	}
	runner.AddRelative(j.sc.Relative, urs)
	return urs
}

// Server is the acesim daemon: an HTTP control plane over a bounded
// scheduler and the content-addressed result cache.
type Server struct {
	cfg     Config
	version string
	cache   *Cache

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job
	order    []string
	active   []*job // jobs with unclaimed units, scheduled round-robin
	rr       int
	pending  int // unclaimed units across active jobs (the queue depth)
	draining bool
	nextID   int

	unitsDone atomic.Int64
	started   time.Time

	ln      net.Listener
	httpSrv *http.Server
	wg      sync.WaitGroup
	httpErr chan error
}

// New builds a server from cfg (no sockets are opened until Start).
func New(cfg Config) *Server {
	if cfg.Addr == "" {
		cfg.Addr = ":8080"
	}
	if cfg.QueueUnits <= 0 {
		cfg.QueueUnits = 4096
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	s := &Server{
		cfg:     cfg,
		version: cfg.Version,
		cache:   NewCache(),
		jobs:    map[string]*job{},
		httpErr: make(chan error, 1),
	}
	if s.version == "" {
		s.version = codeVersion()
	}
	s.cond = sync.NewCond(&s.mu)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/scenarios", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/status", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.httpSrv = &http.Server{Handler: mux}
	return s
}

// Start opens the listener and launches the worker pool and the HTTP
// loop. It returns once the server is accepting connections.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.ln = ln
	s.started = time.Now()
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.httpErr <- err
		}
	}()
	return nil
}

// Addr reports the bound listen address (resolves ":0" test ports).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Err yields a fatal HTTP-loop error, if one occurred.
func (s *Server) Err() <-chan error { return s.httpErr }

// Shutdown drains the daemon gracefully: submissions are rejected,
// workers finish their in-flight unit and exit (no completed unit's
// result is discarded), jobs with unstarted units are marked canceled
// with their completed counts preserved, and the HTTP loop stops once
// in-flight requests finish (result streams of canceled jobs terminate
// early rather than blocking the drain). ctx bounds the HTTP drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait() // in-flight units complete
	s.mu.Lock()
	for _, j := range s.jobs {
		if j.completed < len(j.units) && !j.canceled {
			j.canceled = true
			close(j.done)
		}
	}
	s.mu.Unlock()
	return s.httpSrv.Shutdown(ctx)
}

// defaultWorkers sizes the pool when the config leaves it unset.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// worker pulls unit tasks from the round-robin scheduler until drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, i, ok := s.nextTask()
		if !ok {
			return
		}
		s.runTask(j, i)
	}
}

// nextTask blocks until a unit is claimable or the server drains. Jobs
// are served round-robin so one huge sweep cannot starve a later small
// one — cross-scenario concurrency, not per-scenario FIFO.
func (s *Server) nextTask() (*job, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.draining {
			return nil, 0, false
		}
		if len(s.active) > 0 {
			s.rr %= len(s.active)
			j := s.active[s.rr]
			i := j.next
			j.next++
			s.pending--
			if j.next == len(j.units) {
				s.active = append(s.active[:s.rr], s.active[s.rr+1:]...)
			} else {
				s.rr++
			}
			return j, i, true
		}
		s.cond.Wait()
	}
}

// runTask executes (or cache-loads) unit i of job j and records it.
func (s *Server) runTask(j *job, i int) {
	st := j.states[i]
	m, hit, err := s.cache.Do(st.key, func() (map[string]float64, error) {
		ur, err := runner.RunOne(j.units[i], j.traced)
		if err != nil {
			return nil, err
		}
		return ur.Metrics, nil
	})
	s.mu.Lock()
	st.metrics, st.err, st.hit = m, err, hit
	// ready closes before completed can reach len(units) and close
	// done, so a stream that wakes on done finds every unit ready.
	close(st.ready)
	if hit {
		j.hits++
	}
	if err != nil {
		j.errs++
		if j.firstErr == "" {
			j.firstErr = fmt.Sprintf("unit %d: %v", j.units[i].Index, err)
		}
	}
	j.completed++
	finished := j.completed == len(j.units) && !j.canceled
	if finished {
		close(j.done)
	}
	s.mu.Unlock()
	s.unitsDone.Add(1)
}

// admit queues a parsed, expanded, key-hashed submission, or reports
// queue-full/draining.
func (s *Server) admit(sc *scenario.Scenario, units []scenario.Unit, keys []string) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errDraining
	}
	if s.pending+len(units) > s.cfg.QueueUnits {
		return nil, errQueueFull
	}
	s.nextID++
	j := &job{
		id:     fmt.Sprintf("j%d", s.nextID),
		sc:     sc,
		units:  units,
		traced: sc.TraceEnabled(),
		states: make([]*unitState, len(units)),
		done:   make(chan struct{}),
	}
	for i := range units {
		j.states[i] = &unitState{key: keys[i], ready: make(chan struct{})}
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.active = append(s.active, j)
	s.pending += len(units)
	s.cond.Broadcast()
	return j, nil
}

var (
	errQueueFull = errors.New("submission queue full")
	errDraining  = errors.New("server is draining")
)

// JobStatus is the machine-readable state of one submission.
type JobStatus struct {
	ID        string   `json:"id"`
	Name      string   `json:"name"`
	State     string   `json:"state"` // queued, running, done, failed, canceled
	Units     int      `json:"units"`
	Completed int      `json:"completed"`
	CacheHits int      `json:"cache_hits"`
	Error     string   `json:"error,omitempty"`
	Failures  []string `json:"failures,omitempty"`
}

// statusLocked snapshots j (caller holds s.mu). Assertions are
// evaluated lazily on the first status read after completion.
func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:        j.id,
		Name:      j.sc.Name,
		Units:     len(j.units),
		Completed: j.completed,
		CacheHits: j.hits,
		Error:     j.firstErr,
	}
	switch {
	case j.canceled:
		st.State = "canceled"
	case j.completed == len(j.units) && j.errs > 0:
		st.State = "failed"
	case j.completed == len(j.units):
		st.State = "done"
		if !j.evaluated {
			for _, o := range runner.Evaluate(j.sc.Assertions, j.results()) {
				for _, v := range o.Violations {
					j.failures = append(j.failures, fmt.Sprintf("%s: %s", o.Assertion, v))
				}
			}
			j.evaluated = true
		}
		st.Failures = j.failures
	case j.completed > 0 || j.next > 0:
		st.State = "running"
	default:
		st.State = "queued"
	}
	return st
}

// Status reports one job's state, or ok=false for an unknown id.
func (s *Server) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return s.statusLocked(j), true
}

// Metrics is the daemon-wide counter snapshot.
type Metrics struct {
	UptimeSec   float64 `json:"uptime_sec"`
	Jobs        int     `json:"jobs"`
	QueueDepth  int     `json:"queue_depth"` // accepted, not yet started units
	UnitsDone   int64   `json:"units_done"`
	UnitsPerSec float64 `json:"units_per_sec"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	CacheSize   int64   `json:"cache_entries"`
	HitRate     float64 `json:"hit_rate"`
	Version     string  `json:"version"`
}

// Snapshot reports the daemon-wide metrics.
func (s *Server) Snapshot() Metrics {
	hits, misses, entries := s.cache.Stats()
	s.mu.Lock()
	jobs, depth := len(s.jobs), s.pending
	s.mu.Unlock()
	done := s.unitsDone.Load()
	up := time.Since(s.started).Seconds()
	m := Metrics{
		UptimeSec:   up,
		Jobs:        jobs,
		QueueDepth:  depth,
		UnitsDone:   done,
		CacheHits:   hits,
		CacheMisses: misses,
		CacheSize:   entries,
		Version:     s.version,
	}
	if up > 0 {
		m.UnitsPerSec = float64(done) / up
	}
	if hits+misses > 0 {
		m.HitRate = float64(hits) / float64(hits+misses)
	}
	return m
}

// maxBody bounds a submission body (a scenario file is a few KB; the
// bound only guards against runaway clients).
const maxBody = 8 << 20

// handleSubmit implements POST /v1/scenarios.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sc, err := scenario.Parse(io.LimitReader(r.Body, maxBody))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("parse: %v", err))
		return
	}
	units, err := sc.Expand()
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("expand: %v", err))
		return
	}
	traced := sc.TraceEnabled()
	keys := make([]string, len(units))
	for i, u := range units {
		if keys[i], err = UnitKey(u, traced, s.version); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	j, err := s.admit(sc, units, keys)
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		httpError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, errDraining):
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, map[string]any{
		"id":      j.id,
		"name":    sc.Name,
		"units":   len(units),
		"status":  "/v1/jobs/" + j.id + "/status",
		"results": "/v1/jobs/" + j.id + "/results",
	})
}

// handleStatus implements GET /v1/jobs/{id}[/status].
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, st)
}

// handleJobs implements GET /v1/jobs: every submission in accept order.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, out)
}

// handleMetrics implements GET /v1/metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, s.Snapshot())
}

// handleResults implements GET /v1/jobs/{id}/results: the default
// json-lines stream emits one compact unit object per line in
// deterministic expansion order, each line written as soon as its unit
// (and every earlier one) has finished — two submissions of the same
// scenario return byte-identical bodies whether computed or cached.
// ?format=csv waits for completion and renders the runner's CSV tables.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "jsonl":
		s.streamJSONL(w, r, j)
	case "csv":
		s.resultsCSV(w, r, j)
	default:
		httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (want jsonl or csv)", format))
	}
}

// waitUnit blocks until unit state st is ready, the job is finalized
// (finished or canceled), or the request is gone. It returns whether
// the unit's result is available.
func waitUnit(r *http.Request, j *job, st *unitState) bool {
	select {
	case <-st.ready:
		return true
	default:
	}
	select {
	case <-st.ready:
		return true
	case <-j.done:
		// Finished (every unit ready) or canceled (this one never ran);
		// a non-blocking re-check distinguishes the two.
		select {
		case <-st.ready:
			return true
		default:
			return false
		}
	case <-r.Context().Done():
		return false
	}
}

// streamJSONL writes the json-lines result stream.
func (s *Server) streamJSONL(w http.ResponseWriter, r *http.Request, j *job) {
	w.Header().Set("Content-Type", "application/jsonl")
	fl, _ := w.(http.Flusher)
	for i := range j.units {
		if !waitUnit(r, j, j.states[i]) {
			return // canceled mid-sweep: the stream ends at the last completed prefix
		}
		st := j.states[i]
		var line []byte
		if st.err != nil {
			line, _ = json.Marshal(struct {
				Index int    `json:"index"`
				Error string `json:"error"`
			}{j.units[i].Index, st.err.Error()})
		} else {
			var err error
			line, err = runner.MarshalUnitLine(runner.UnitResult{Unit: j.units[i], Metrics: st.metrics})
			if err != nil {
				return
			}
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return
		}
		if fl != nil {
			fl.Flush()
		}
	}
}

// resultsCSV renders the completed job through the runner's CSV tables.
func (s *Server) resultsCSV(w http.ResponseWriter, r *http.Request, j *job) {
	for i := range j.units {
		if !waitUnit(r, j, j.states[i]) {
			httpError(w, http.StatusConflict, "job canceled before completion")
			return
		}
		if j.states[i].err != nil {
			httpError(w, http.StatusConflict, fmt.Sprintf("unit %d failed: %v", j.units[i].Index, j.states[i].err))
			return
		}
	}
	res := runner.Results{Name: j.sc.Name, Units: j.results(), Total: len(j.units), Relative: j.sc.Relative}
	w.Header().Set("Content-Type", "text/csv")
	_ = res.WriteCSV(w)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	writeJSON(w, map[string]string{"error": msg})
}

func writeJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
