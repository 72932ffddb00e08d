package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"time"

	"acesim/internal/scenario"
	"acesim/internal/scenario/runner"
)

// minPasses is the fewest timed passes a run makes, however short
// --seconds is.
const minPasses = 3

// sweepSetupReps is how often a sweep sets up per pass: set-up takes
// milliseconds, so its median needs more samples than there are passes.
const sweepSetupReps = 100

// sweepWorkload runs generated scenarios through runner.Run.
type sweepWorkload struct {
	name string
	gen  func(seed uint64) []*scenario.Scenario
	// shared, when set, generates the scenarios whose results this
	// workload's first scenarios must reproduce byte for byte.
	shared func(seed uint64) []*scenario.Scenario
	// export writes the Chrome trace and the power CSV inside the timed
	// region, as `acesim trace` does.
	export bool
}

// prepared is a set-up workload: parsed scenarios and their units.
type prepared struct {
	scs   []*scenario.Scenario
	units [][]scenario.Unit
}

// prepare generates, parses, validates and expands a sweep. It returns
// the time Expand took.
func prepare(rec *recorder, scs []*scenario.Scenario) (prepared, int64, error) {
	docs, err := marshalAll(scs)
	if err != nil {
		return prepared{}, 0, err
	}
	root := rec.begin(0, "setup", "")
	defer rec.end(root)
	var p prepared
	var expandNs int64
	for _, doc := range docs {
		var sc *scenario.Scenario
		if err := rec.do(root, "scenario.Parse", "", func() (err error) {
			sc, err = scenario.Parse(bytes.NewReader(doc))
			return err
		}); err != nil {
			return p, 0, err
		}
		t0 := time.Now()
		var units []scenario.Unit
		if err := rec.do(root, "scenario.Expand", sc.Name, func() (err error) {
			units, err = sc.Expand()
			return err
		}); err != nil {
			return p, 0, err
		}
		expandNs += time.Since(t0).Nanoseconds()
		p.scs = append(p.scs, sc)
		p.units = append(p.units, units)
	}
	return p, expandNs, nil
}

// sweepPass is one untraced timed pass.
type sweepPass struct {
	wall, cpu, heapMB, allocMB float64
	units                      int
	results                    []*runner.Results
}

// timedPass runs every scenario through runner.Run with tracing off.
func (w sweepWorkload) timedPass(p prepared) (sweepPass, error) {
	runtime.GC()
	a0 := allocBytes()
	hs := startHeapSampler()
	c0 := cpuSeconds()
	t0 := time.Now()
	var out sweepPass
	for _, sc := range p.scs {
		res, err := runner.Run(sc, runner.Options{Workers: workers})
		if err != nil {
			hs.Stop()
			return out, err
		}
		if w.export {
			var cw countingWriter
			if err := res.WriteChromeTrace(&cw); err != nil {
				hs.Stop()
				return out, err
			}
			if res.Powered() {
				if err := res.WritePowerCSV(&cw); err != nil {
					hs.Stop()
					return out, err
				}
			}
		}
		out.results = append(out.results, res)
		out.units += len(res.Units)
	}
	out.wall = time.Since(t0).Seconds()
	out.cpu = cpuSeconds() - c0
	out.heapMB = hs.Stop()
	out.allocMB = float64(allocBytes()-a0) / (1 << 20)
	return out, nil
}

// rendered is a pass's results as the json-lines the CLI and the
// daemon emit, one string per scenario, plus each unit's metrics.
type rendered struct {
	lines   []string
	metrics [][]map[string]float64
}

// render marshals every unit line and reports the time it took.
func render(results []*runner.Results) (rendered, int64, error) {
	var r rendered
	t0 := time.Now()
	for _, res := range results {
		var b bytes.Buffer
		var ms []map[string]float64
		for _, ur := range res.Units {
			line, err := runner.MarshalUnitLine(ur)
			if err != nil {
				return r, 0, err
			}
			b.Write(line)
			b.WriteByte('\n')
			ms = append(ms, ur.Metrics)
		}
		r.lines = append(r.lines, b.String())
		r.metrics = append(r.metrics, ms)
	}
	return r, time.Since(t0).Nanoseconds(), nil
}

// digest hashes named json-lines documents in order.
func digest(names, docs []string) string {
	h := sha256.New()
	for i := range docs {
		fmt.Fprintf(h, "%s\n%s", names[i], docs[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// measure runs timed passes until o.seconds have passed (at least
// minPasses), then checks the results.
func (w sweepWorkload) measure(o options, rep *report) error {
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	var (
		setupS, walls, cpus, heaps []float64
		units                      int
		ref                        rendered
		names                      []string
		lr                         layerRun
	)
	deadline := time.Now().Add(o.seconds)
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		var p prepared
		runtime.GC() // no collection left over from the last pass
		for k := 0; k < sweepSetupReps; k++ {
			t0 := time.Now()
			var expandNs int64
			var err error
			if p, expandNs, err = prepare(rec, w.gen(o.seed)); err != nil {
				return fmt.Errorf("%s set-up: %w", w.name, err)
			}
			setupS = append(setupS, time.Since(t0).Seconds())
			lr.expandMs = append(lr.expandMs, float64(expandNs)/nsPerMs)
		}
		sp, err := w.timedPass(p)
		if err != nil {
			rep.t.op(fmt.Sprintf("pass %d: %v", pass, err))
			continue
		}
		for range sp.units {
			rep.t.op("")
		}
		walls = append(walls, sp.wall)
		cpus = append(cpus, sp.cpu)
		heaps = append(heaps, sp.heapMB)
		units += sp.units
		lr.allocMB = append(lr.allocMB, sp.allocMB)
		lr.untraced = append(lr.untraced, sp.wall)
		r, renderNs, err := render(sp.results)
		if err != nil {
			return err
		}
		lr.renderMs = append(lr.renderMs, float64(renderNs)/nsPerMs)
		if ref.lines == nil {
			ref = r
			for _, res := range sp.results {
				names = append(names, res.Name)
				for _, a := range res.Assertions {
					rep.t.check(a.OK(), "%s: assertion %s: %v", res.Name, a.Assertion, a.Violations)
				}
			}
		} else {
			rep.t.check(slices.Equal(r.lines, ref.lines), "pass %d results differ from pass 0", pass)
		}
		sp = sweepPass{} // drop the results (and their spans) before the traced pass
		if o.trace {
			wallNs := tracedPass(rec, w.name, p, ref.metrics, &lr, &rep.t)
			lr.walls = append(lr.walls, float64(wallNs)/1e9)
		}
	}
	if len(walls) == 0 {
		return fmt.Errorf("%s: no pass completed: %v", w.name, rep.t.errs)
	}
	w.checks(o, ref, names, rep)

	rep.set("setup_s", "s", median(setupS))
	rep.set("wall_s", "s", median(walls))
	// Every pass runs the same units, so the median pass sets the rate.
	rep.set("units_per_s", "units/s", float64(units/len(walls))/median(walls))
	rep.set("peak_heap_mb", "MiB", median(heaps))
	rep.set("cpu_s", "s", median(cpus))
	rep.detail["passes"] = len(walls)
	rep.detail["setup_samples"] = len(setupS)
	rep.detail["units_per_pass"] = units / len(walls)
	rep.detail["wall_s_all"] = walls
	if o.trace {
		lr.report(rep)
		rep.spans = rec.snapshot()
	}
	return nil
}

// checks runs the once-per-run correctness checks: the recorded digest
// of the default seed, and the shared points of another workload.
func (w sweepWorkload) checks(o options, ref rendered, names []string, rep *report) {
	got := digest(names, ref.lines)
	rep.detail["digest"] = got
	if o.seed == defaultSeed {
		rep.t.check(got == digests[w.name], "%s seed %d: results digest %s, recorded %s", w.name, o.seed, got, digests[w.name])
	}
	if w.shared == nil {
		return
	}
	p, _, err := prepare(nil, w.shared(o.seed))
	if err != nil {
		rep.t.op(fmt.Sprintf("shared points: %v", err))
		return
	}
	for i, sc := range p.scs {
		res, err := runner.Run(sc, runner.Options{Workers: workers})
		if err != nil {
			rep.t.op(fmt.Sprintf("shared points %s: %v", sc.Name, err))
			continue
		}
		r, _, err := render([]*runner.Results{res})
		if err != nil {
			rep.t.op(fmt.Sprintf("shared points %s: %v", sc.Name, err))
			continue
		}
		rep.t.check(i < len(ref.lines) && r.lines[0] == ref.lines[i],
			"%s: results differ from the DES run of the same points", sc.Name)
	}
}
