package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParseScenario hardens the JSON parser and validator the scenario
// engine (including the multijob placement fields) is built on: for any
// input, Parse/Validate/Expand must return errors, never panic, and an
// input that validates must expand deterministically with units indexed
// by position. The seed corpus is every bundled example scenario plus
// hand-picked edge cases around the new fields; go's fuzzer also loads
// the committed corpus under testdata/fuzz/FuzzParseScenario.
func FuzzParseScenario(f *testing.F) {
	seeds, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no example scenarios found: %v", err)
	}
	for _, p := range seeds {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add(`{"name":"x","jobs":[]}`)
	f.Add(`{"name":"x","platform":{"toruses":["4x2x2"]},"jobs":[{"kind":"multijob","jobs":[{"workload":"resnet50","placement":"4x1x2@0,1,0"}]}]}`)
	f.Add(`{"name":"x","platform":{"toruses":["2x1x1"]},"jobs":[{"kind":"multijob","arbitration":"rr","jobs":[{"payload_bytes":1,"repeat":2},{"collective":"alltoall","payload_mb":0.5}]}]}`)
	f.Add(`{"name":"x","jobs":[{"kind":"multijob","jobs":[{"placement":"@","payload_mb":-1}]}]}`)
	f.Add(`{"name":"x","platform":{"toruses":["999999999x999999999x2"]},"jobs":[{"kind":"collective","payloads_mb":[1e30]}]}`)
	// Trace-block edge cases: enabled with an assertion on a trace
	// metric, disabled-but-present with an out path, a wrong-typed out,
	// and a trace metric asserted without the block (must be rejected,
	// not panic).
	f.Add(`{"name":"x","platform":{"toruses":["2x1x1"]},"jobs":[{"kind":"collective","payloads_mb":[1]}],"trace":{"enabled":true,"out":"t.json"},"assertions":[{"metric":"overlap_frac","op":">=","value":0}]}`)
	f.Add(`{"name":"x","jobs":[{"kind":"collective","payloads_mb":[1]}],"trace":{"enabled":false,"out":""}}`)
	f.Add(`{"name":"x","jobs":[{"kind":"collective","payloads_mb":[1]}],"trace":{"enabled":true,"out":42}}`)
	f.Add(`{"name":"x","jobs":[{"kind":"collective","payloads_mb":[1]}],"assertions":[{"metric":"trace_exposed_us","op":">","value":0}]}`)
	// Event-track edge cases: bad at_us, unknown actions, out-of-range
	// link/node targets, wrong scope, malformed recovery blocks, and fault
	// metrics asserted without an events track — all must reject cleanly.
	f.Add(`{"name":"x","platform":{"toruses":["4"]},"jobs":[{"kind":"collective","payloads_mb":[1]}],"events":[{"at_us":-5,"action":"link_down","link":{"node":0,"dim":0,"dir":1}}]}`)
	f.Add(`{"name":"x","platform":{"toruses":["4"]},"jobs":[{"kind":"collective","payloads_mb":[1]}],"events":[{"at_us":10,"action":"explode"}]}`)
	f.Add(`{"name":"x","platform":{"toruses":["4"]},"jobs":[{"kind":"collective","payloads_mb":[1]}],"events":[{"at_us":10,"action":"link_down","link":{"node":99,"dim":7,"dir":3}}]}`)
	f.Add(`{"name":"x","platform":{"toruses":["4"]},"jobs":[{"kind":"collective","payloads_mb":[1]}],"events":[{"at_us":10,"action":"straggler","node":-1,"factor":0}]}`)
	f.Add(`{"name":"x","platform":{"toruses":["4"]},"jobs":[{"kind":"collective","payloads_mb":[1]}],"events":[{"at_us":10,"action":"job_depart","job":"ghost"}]}`)
	f.Add(`{"name":"x","platform":{"toruses":["4"]},"jobs":[{"kind":"collective","payloads_mb":[1]}],"recovery":{"timeout_us":-1,"backoff":0.5,"max_retries":-2},"events":[{"at_us":1,"action":"checkpoint","cost_us":1}]}`)
	f.Add(`{"name":"x","platform":{"toruses":["4x2x2"]},"jobs":[{"kind":"multijob","jobs":[{"name":"a","payload_mb":1,"placement":"4x1x2@0,0,0","start_at_us":-3},{"name":"b","payload_mb":1,"placement":"4x1x2@0,1,0"}]}],"events":[{"at_us":10,"action":"link_down","link":{"node":0,"dim":0,"dir":1}}]}`)
	f.Add(`{"name":"x","jobs":[{"kind":"microbench","payloads_mb":[1],"kernels":[{"gemm_n":64}]}],"events":[{"at_us":1,"action":"checkpoint","cost_us":1}]}`)
	f.Add(`{"name":"x","platform":{"toruses":["4"]},"jobs":[{"kind":"collective","payloads_mb":[1]}],"assertions":[{"metric":"fault_drops","op":">=","value":1}]}`)
	f.Add(`{"name":"x","platform":{"toruses":["4"]},"jobs":[{"kind":"collective","payloads_mb":[1]}],"events":[{"at_us":1e308,"action":"link_degrade","link":{"node":0,"dim":0,"dir":-1},"factor":-0.1}]}`)
	// Power-block edge cases: negative coefficient overrides, absurd and
	// NaN-shaped sampling windows, unknown coefficient keys, energy
	// metrics asserted while the block is disabled or absent, and a
	// power-metric assertion against a microbench job — all must reject
	// cleanly (or validate and expand coherently), never panic.
	f.Add(`{"name":"x","platform":{"toruses":["4"]},"jobs":[{"kind":"collective","payloads_mb":[1]}],"power":{"enabled":true,"coefficients":{"hbm_pj_per_byte":-30}}}`)
	f.Add(`{"name":"x","platform":{"toruses":["4"]},"jobs":[{"kind":"collective","payloads_mb":[1]}],"power":{"enabled":true,"window_us":1e300}}`)
	f.Add(`{"name":"x","platform":{"toruses":["4"]},"jobs":[{"kind":"collective","payloads_mb":[1]}],"power":{"enabled":true,"coefficients":{"flux_capacitor_w":88}}}`)
	f.Add(`{"name":"x","platform":{"toruses":["4"]},"jobs":[{"kind":"collective","payloads_mb":[1]}],"power":{"enabled":false},"assertions":[{"metric":"energy_total_j","op":">","value":0}]}`)
	f.Add(`{"name":"x","platform":{"toruses":["4"]},"jobs":[{"kind":"microbench","payloads_mb":[1],"kernels":[{"gemm_n":64}]}],"power":{"enabled":true},"assertions":[{"metric":"perf_per_watt","op":">","value":0}]}`)
	f.Add(`{"name":"x","platform":{"toruses":["4"],"presets":["Ideal"],"engine":"hybrid"},"jobs":[{"kind":"collective","payloads_mb":[1]}],"power":{"enabled":true,"window_us":-5,"coefficients":{"static_npu_w":0}}}`)

	// Override-point edge cases: the list form with good, out-of-range
	// and empty points, and the pre-list single-object form (a type
	// error now, never a panic).
	f.Add(`{"name":"x","platform":{"toruses":["4x2x2"],"presets":["ACE"],"overrides":[{"comm_mem_gbps":64},{"comm_sms":80,"intra_gbps":100},{}]},"jobs":[{"kind":"collective","payloads_mb":[1]}]}`)
	f.Add(`{"name":"x","platform":{"toruses":["4"],"overrides":[{"comm_sms":500},{"intra_gbps":-1},{"ace_fsms":0}]},"jobs":[{"kind":"training","workloads":["dlrm"]}]}`)
	f.Add(`{"name":"x","platform":{"toruses":["4"],"overrides":[]},"jobs":[{"kind":"collective","payloads_mb":[1]}]}`)
	f.Add(`{"name":"x","platform":{"toruses":["4"],"overrides":{"comm_mem_gbps":32}},"jobs":[{"kind":"collective","payloads_mb":[1]}]}`)

	// Relative-block edge cases: both selectors, none, an out-of-range
	// or negative job, a preset outside the grid, a shadowing name, a
	// wrong-typed job, and an assertion on a relative metric.
	f.Add(`{"name":"x","platform":{"toruses":["4"],"presets":["ACE","Ideal"]},"jobs":[{"kind":"collective","payloads_mb":[1]}],"relative":[{"name":"r","metric":"duration_us","presets":["Ideal"]}],"assertions":[{"metric":"r","op":">","value":0,"preset":"ACE"}]}`)
	f.Add(`{"name":"x","platform":{"toruses":["4"]},"jobs":[{"kind":"collective","payloads_mb":[1]}],"relative":[{"name":"r","metric":"duration_us","presets":["ACE"],"job":0},{"name":"s","metric":"duration_us"}]}`)
	f.Add(`{"name":"x","platform":{"toruses":["4"]},"jobs":[{"kind":"training","workloads":["dlrm"]}],"relative":[{"name":"r","metric":"iter_time_us","job":-1},{"name":"r","metric":"iter_time_us","job":7}]}`)
	f.Add(`{"name":"x","platform":{"toruses":["4"],"presets":["ACE"]},"jobs":[{"kind":"collective","payloads_mb":[1]}],"relative":[{"name":"duration_us","metric":"duration_us","presets":["Ideal"]},{"name":"","metric":"slowdown","job":"0"}]}`)
	f.Add(`{"name":"x","jobs":[{"kind":"microbench","payloads_mb":[1],"kernels":[{"gemm_n":64}]}],"relative":[{"name":"r","metric":"slowdown","presets":["ACE"]}]}`)

	f.Fuzz(func(t *testing.T, src string) {
		sc, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		units, err := sc.Expand()
		if err != nil {
			return
		}
		// A scenario that expands must do so coherently.
		for i, u := range units {
			if u.Index != i {
				t.Fatalf("unit %d has Index %d", i, u.Index)
			}
			if u.Job < 0 || u.Job >= len(sc.Jobs) {
				t.Fatalf("unit %d references job %d of %d", i, u.Job, len(sc.Jobs))
			}
		}
		again, err := sc.Expand()
		if err != nil || len(again) != len(units) {
			t.Fatalf("re-expansion disagreed: %d units, %v", len(again), err)
		}
	})
}
