package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"acesim/internal/collectives"
	"acesim/internal/graph"
	"acesim/internal/noc"
	"acesim/internal/scenario"
	"acesim/internal/workload"
)

// runGraphCmd dispatches the graph subcommands:
//
//	acesim graph validate <file>...
//	acesim graph run [-size SHAPE] [-preset P] [-engine E] [-power] <file>...
//	acesim graph convert -workload W [-size SHAPE] [-iterations N]
//	    [-no-overlap] [-dlrm-optimized]
//	    [-stages S -microbatches M -schedule gpipe|1f1b] [-out path]
//
// validate parses and checks graph files. run replays each file as a
// one-job scenario and prints it the way `scenario run` does. convert
// lowers a bundled workload into the JSON graph format — the plain
// Section V training loop by default, or a pipeline-parallel schedule
// when -stages is set — so the emitted file can be edited by hand or
// replayed with `graph run`. Each subcommand accepts only the flags it
// reads.
func runGraphCmd(ctx context.Context, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("graph: %w: missing graph subcommand (run, convert or validate)", errUsage)
	}
	fs := flag.NewFlagSet("graph "+args[0], flag.ContinueOnError)
	switch args[0] {
	case "validate":
		return graphValidate(fs, args[1:])
	case "run":
		return graphRun(ctx, fs, args[1:])
	case "convert":
		return graphConvert(fs, args[1:])
	}
	return fmt.Errorf("graph: %w: unknown graph subcommand %q (want run, convert or validate)", errUsage, args[0])
}

func graphValidate(fs *flag.FlagSet, args []string) error {
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("graph validate: %w: missing graph file", errUsage)
	}
	for _, path := range fs.Args() {
		g, err := graph.Load(path)
		if err != nil {
			return err
		}
		st := g.Stats()
		fmt.Printf("%s: ok (%q, %d ranks, %d ops: %d compute, %d collective, %d send, %d mark)\n",
			path, g.Name, g.Ranks, st.Ops, st.Computes, st.Collectives, st.Sends, st.Marks)
	}
	return nil
}

// graphRun runs the files one at a time, so only one graph is resident.
func graphRun(ctx context.Context, fs *flag.FlagSet, args []string) error {
	sizeStr := fs.String("size", "4x2x2", "fabric topology the graph runs on")
	preset := fs.String("preset", "ACE", "Table VI preset")
	engineStr := fs.String("engine", "des", "execution engine: des, hybrid or analytic")
	powerOn := fs.Bool("power", false, "enable energy accounting (preset default coefficients)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("graph run: %w: missing graph file", errUsage)
	}
	size, err := parseTorus(*sizeStr)
	if err != nil {
		return err
	}
	engine, err := collectives.ParseEngine(*engineStr)
	if err != nil {
		return err
	}
	for _, path := range fs.Args() {
		sc := graphScenario(path, size, *preset, engine, *powerOn)
		if _, err := runScenarioFile(ctx, sc, runOpts{format: "text"}); err != nil {
			return err
		}
	}
	return nil
}

// graphScenario builds the one-job scenario that replays the graph file
// at path on one platform point; `graph run` and `trace` on a graph run
// it like any scenario file. Only a DES run traces: tracing forces full
// DES, so the fast engines report no overlap or link-util metrics.
func graphScenario(path string, size noc.Topology, preset string, engine collectives.Engine, powerOn bool) *scenario.Scenario {
	sc := &scenario.Scenario{
		Name:     strings.TrimSuffix(filepath.Base(path), ".json"),
		Platform: &scenario.Platform{Topologies: []noc.Topology{size}, Presets: []string{preset}, Engine: engine.String()},
		Jobs:     []scenario.Job{{Kind: scenario.KindGraph, Graph: path}},
	}
	if powerOn {
		sc.Power = &scenario.PowerSpec{Enabled: true}
	}
	if engine == collectives.EngineDES {
		sc.Trace = &scenario.TraceSpec{Enabled: true}
	}
	return sc
}

func graphConvert(fs *flag.FlagSet, args []string) error {
	sizeStr := fs.String("size", "4x2x2", "fabric topology the graph is lowered for")
	wl := fs.String("workload", "", "workload to convert (resnet50, gnmt, dlrm)")
	iters := fs.Int("iterations", 2, "training iterations to lower")
	noOverlap := fs.Bool("no-overlap", false, "lower the fused blocking schedule instead of per-layer overlap")
	dlrmOpt := fs.Bool("dlrm-optimized", false, "lower the Fig 12 optimized DLRM loop")
	stages := fs.Int("stages", 0, "pipeline stages; > 0 synthesizes a pipeline instead of the training loop")
	microbatches := fs.Int("microbatches", 4, "microbatches per iteration (pipeline synthesis)")
	schedule := fs.String("schedule", "gpipe", "pipeline schedule: gpipe or 1f1b")
	out := fs.String("out", "-", `output path ("-" for stdout)`)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	size, err := parseTorus(*sizeStr)
	if err != nil {
		return err
	}
	if *wl == "" {
		return fmt.Errorf("graph convert: %w: missing -workload", errUsage)
	}
	m, err := workload.ByName(*wl)
	if err != nil {
		return err
	}
	var g *graph.Graph
	if *stages > 0 {
		sched, err := graph.ParsePipeSchedule(*schedule)
		if err != nil {
			return err
		}
		g, err = graph.Pipeline(graph.PipelineConfig{
			Model:        m,
			Ranks:        size.N(),
			Stages:       *stages,
			Microbatches: *microbatches,
			Schedule:     sched,
			Iterations:   *iters,
		})
		if err != nil {
			return err
		}
	} else {
		g, err = graph.FromModel(m, graph.ModelConfig{
			Iterations:    *iters,
			Overlap:       !*noOverlap,
			DLRMOptimized: *dlrmOpt,
		}, size.N())
		if err != nil {
			return err
		}
	}
	g.Topo = &size // record the fabric the graph was lowered for
	if *out == "-" {
		return g.WriteJSON(os.Stdout)
	}
	if err := writeFile(*out, g.WriteJSON); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d ranks, %d ops)\n", *out, g.Ranks, len(g.Ops))
	return nil
}
