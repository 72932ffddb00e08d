package main

import (
	"context"
	"errors"
	"testing"
)

// cheapScenario expands to 3 analytic collective units — fast enough
// for the CLI smoke path to run in a unit test.
const cheapScenario = `{
  "name": "cli-serve",
  "platform": {"toruses": ["4"], "presets": ["ACE"], "engine": "analytic"},
  "jobs": [{"kind": "collective", "payload_bytes": [4096, 8192, 16384]}]
}`

// TestServeSmokeCLI drives `acesim serve -smoke` end to end: ephemeral
// daemon, double submission, cache-hit and byte-identity assertions.
func TestServeSmokeCLI(t *testing.T) {
	path := writeScenario(t, "cheap.json", cheapScenario)
	if err := silence(t, func() error {
		return run([]string{"serve", "-smoke", path, "-workers", "2"})
	}); err != nil {
		t.Fatalf("serve -smoke: %v", err)
	}
}

// TestServeUsage rejects stray positionals.
func TestServeUsage(t *testing.T) {
	err := silence(t, func() error { return run([]string{"serve", "extra"}) })
	if !errors.Is(err, errUsage) {
		t.Fatalf("serve extra = %v, want errUsage", err)
	}
}

// TestScenarioRunInterrupted: a canceled context makes `scenario run`
// flush what completed (nothing, here) and report errInterrupted — the
// exit-130 path.
func TestScenarioRunInterrupted(t *testing.T) {
	path := writeScenario(t, "cheap.json", cheapScenario)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := silence(t, func() error { return runCtx(ctx, []string{"scenario", "run", path}) })
	if !errors.Is(err, errInterrupted) {
		t.Fatalf("canceled scenario run = %v, want errInterrupted", err)
	}
}

// TestTraceInterrupted: same contract for `acesim trace`.
func TestTraceInterrupted(t *testing.T) {
	path := writeScenario(t, "cheap.json", cheapScenario)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := silence(t, func() error { return runCtx(ctx, []string{"trace", "-out", t.TempDir() + "/t.json", path}) })
	if !errors.Is(err, errInterrupted) {
		t.Fatalf("canceled trace = %v, want errInterrupted", err)
	}
}
