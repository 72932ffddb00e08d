package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// SmokeReport summarizes one end-to-end self-test.
type SmokeReport struct {
	Units      int
	FirstHits  int
	SecondHits int
	Bytes      int
	Identical  bool
}

// Smoke exercises a live daemon end to end: submit scenarioJSON twice,
// wait both jobs out, and check that the second submission was served
// entirely from the cache with a byte-identical json-lines body. It is
// the substance of `make serve-smoke`.
func Smoke(ctx context.Context, baseURL string, scenarioJSON []byte) (*SmokeReport, error) {
	client := &http.Client{Timeout: 120 * time.Second}
	var retried atomic.Int64
	run := func() (*JobStatus, []byte, error) {
		id, err := submitWithRetry(ctx, client, baseURL, scenarioJSON, &retried)
		if err != nil {
			return nil, nil, err
		}
		st, err := waitDone(ctx, client, baseURL, id)
		if err != nil {
			return nil, nil, err
		}
		if st.State != "done" {
			return nil, nil, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		}
		body, err := fetchResults(ctx, client, baseURL, id)
		return st, body, err
	}
	st1, b1, err := run()
	if err != nil {
		return nil, fmt.Errorf("first submission: %w", err)
	}
	st2, b2, err := run()
	if err != nil {
		return nil, fmt.Errorf("second submission: %w", err)
	}
	rep := &SmokeReport{
		Units:      st1.Units,
		FirstHits:  st1.CacheHits,
		SecondHits: st2.CacheHits,
		Bytes:      len(b1),
		Identical:  bytes.Equal(b1, b2),
	}
	if !rep.Identical {
		return rep, fmt.Errorf("result bodies differ (%d vs %d bytes)", len(b1), len(b2))
	}
	if st2.CacheHits != st2.Units {
		return rep, fmt.Errorf("second submission hit the cache for only %d of %d units", st2.CacheHits, st2.Units)
	}
	return rep, nil
}

// fetchResults reads a job's full json-lines result body.
func fetchResults(ctx context.Context, client *http.Client, baseURL, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/jobs/"+id+"/results", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("results %s: %s: %s", id, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// submitWithRetry POSTs one scenario, sleeping out 429 responses per
// their Retry-After hint (bounded below at 50ms so a zero hint cannot
// spin), until accepted or ctx ends.
func submitWithRetry(ctx context.Context, client *http.Client, baseURL string, body []byte, retried *atomic.Int64) (string, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/scenarios", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return "", err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			delay := 50 * time.Millisecond
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				delay = time.Duration(ra) * time.Second
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			retried.Add(1)
			select {
			case <-time.After(delay):
				continue
			case <-ctx.Done():
				return "", ctx.Err()
			}
		}
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return "", rerr
		}
		if resp.StatusCode != http.StatusAccepted {
			return "", fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(b))
		}
		var acc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(b, &acc); err != nil {
			return "", fmt.Errorf("submit: decoding response: %w", err)
		}
		return acc.ID, nil
	}
}

// waitDone polls a job's status until it leaves the queued/running
// states.
func waitDone(ctx context.Context, client *http.Client, baseURL string, id string) (*JobStatus, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/jobs/"+id+"/status", nil)
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %s: %s: %s", id, resp.Status, bytes.TrimSpace(b))
		}
		var st JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			return nil, err
		}
		if st.State != "queued" && st.State != "running" {
			return &st, nil
		}
		select {
		case <-time.After(20 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
