package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"acesim/internal/serve"
)

// runServe implements `acesim serve`: the long-running daemon by
// default, plus a self-test mode —
//
//	acesim serve -addr :8080                # daemon; SIGINT/SIGTERM drains
//	acesim serve -smoke scenario.json       # ephemeral daemon, double-submit, cache check
//
// See README.md, "Serving mode", for the HTTP API.
func runServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "worker pool size shared across all jobs (default GOMAXPROCS)")
	queue := fs.Int("queue", 4096, "submission queue bound in work units (submissions past it get 429)")
	drain := fs.Duration("drain", 30*time.Second, "graceful drain timeout on shutdown")
	smoke := fs.String("smoke", "", "self-test: ephemeral daemon, submit this scenario twice, assert the second is a byte-identical cache hit")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve: %w: unexpected argument %q", errUsage, fs.Arg(0))
	}
	cfg := serve.Config{Addr: *addr, Workers: *workers, QueueUnits: *queue}
	if *smoke != "" {
		return serveSmoke(ctx, cfg, *smoke, *drain)
	}
	return serveDaemon(ctx, cfg, *drain)
}

// serveDaemon runs the daemon until a signal, then drains gracefully:
// in-flight units finish, jobs with unstarted units are canceled with
// completed work preserved, and the process exits 0.
func serveDaemon(ctx context.Context, cfg serve.Config, drain time.Duration) error {
	s := serve.New(cfg)
	if err := s.Start(); err != nil {
		return err
	}
	fmt.Printf("acesim serve: listening on %s (queue %d units)\n", s.Addr(), cfg.QueueUnits)
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "acesim serve: signal received, draining")
	case err := <-s.Err():
		return err
	}
	if err := shutdown(s, drain); err != nil {
		return err
	}
	m := s.Snapshot()
	fmt.Printf("acesim serve: drained (%d units done, %d jobs, hit rate %.3f)\n",
		m.UnitsDone, m.Jobs, m.HitRate)
	return nil
}

// serveSmoke self-hosts an ephemeral daemon and runs the double-submit
// cache check against it.
func serveSmoke(ctx context.Context, cfg serve.Config, path string, drain time.Duration) error {
	body, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	cfg.Addr = "127.0.0.1:0"
	s := serve.New(cfg)
	if err := s.Start(); err != nil {
		return err
	}
	rep, err := serve.Smoke(ctx, "http://"+s.Addr(), body)
	if serr := shutdown(s, drain); err == nil {
		err = serr
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return errInterrupted
		}
		return fmt.Errorf("serve smoke: %w", err)
	}
	fmt.Printf("serve smoke: ok (%d units, second submission %d/%d cache hits, bodies byte-identical, %d bytes)\n",
		rep.Units, rep.SecondHits, rep.Units, rep.Bytes)
	return nil
}

// shutdown drains a self-hosted server within the -drain budget.
func shutdown(s *serve.Server, drain time.Duration) error {
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	return s.Shutdown(dctx)
}
