package scenario

import (
	"fmt"
	"strings"
	"testing"

	"acesim/internal/noc"
	"acesim/internal/system"
)

const goodScenario = `{
  "name": "good",
  "description": "grid demo",
  "platform": {
    "toruses": ["4x2x2", "4x4x2"],
    "presets": ["BaselineCommOpt", "ACE"]
  },
  "jobs": [
    {"kind": "collective", "collective": "allreduce", "payloads_mb": [4, 16]},
    {"kind": "training", "workloads": ["resnet50", "dlrm"]},
    {"kind": "microbench", "payloads_mb": [10], "kernels": [{"gemm_n": 1000}, {"emb_batch": 10000}]}
  ],
  "assertions": [
    {"metric": "eff_gbps_node", "op": ">", "value": 0},
    {"metric": "iter_time_us", "op": ">", "value": 0, "preset": "ACE", "workload": "dlrm"},
    {"metric": "slowdown", "op": ">=", "value": 1, "kind": "microbench"}
  ]
}`

func parse(t *testing.T, src string) *Scenario {
	t.Helper()
	sc, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestExpandGoodScenario(t *testing.T) {
	sc := parse(t, goodScenario)
	units, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 2 toruses x 2 presets x 2 payloads + 2x2x2 workloads + 1x2 kernels.
	if want := 8 + 8 + 2; len(units) != want {
		t.Fatalf("units = %d, want %d", len(units), want)
	}
	for i, u := range units {
		if u.Index != i {
			t.Fatalf("unit %d has Index %d", i, u.Index)
		}
	}
	// Expansion order: torus outer, preset, then sweep point.
	u0 := units[0]
	if u0.Kind != KindCollective || !u0.Topo.Equal(noc.Torus3(4, 2, 2)) ||
		u0.Preset != system.BaselineCommOpt || u0.Bytes != 4<<20 {
		t.Fatalf("unit 0 = %+v", u0)
	}
	if units[1].Bytes != 16<<20 {
		t.Fatalf("payload is not the innermost axis: %+v", units[1])
	}
	if units[2].Preset != system.ACE {
		t.Fatalf("preset is not the middle axis: %+v", units[2])
	}
	if u := units[4]; !u.Topo.Equal(noc.Torus3(4, 4, 2)) {
		t.Fatalf("torus is not the outer axis: %+v", u)
	}
	// Training units follow (workload names canonicalized), then
	// microbench (payload outer, kernel inner).
	if u := units[8]; u.Kind != KindTraining || u.Workload != "ResNet-50" {
		t.Fatalf("unit 8 = %+v", u)
	}
	mb := units[16]
	if mb.Kind != KindMicrobench || mb.Kernel.KernelName() != "GEMM 1000" || mb.Bytes != 10<<20 {
		t.Fatalf("unit 16 = %+v", mb)
	}
	if units[17].Kernel.KernelName() != "EmbLookup 10000" {
		t.Fatalf("unit 17 = %+v", units[17])
	}
}

func TestExpandDeterministic(t *testing.T) {
	a, err := parse(t, goodScenario).Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := parse(t, goodScenario).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		// Units hold a slice field (SubJobs), so compare via formatting.
		if fmt.Sprintf("%+v", a[i]) != fmt.Sprintf("%+v", b[i]) {
			t.Fatalf("unit %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestEmptyPresetsMeansAllFive(t *testing.T) {
	sc := parse(t, `{
	  "name": "all-presets",
	  "platform": {"toruses": ["4x2x2"]},
	  "jobs": [{"kind": "collective", "payloads_mb": [4]}]
	}`)
	units, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != len(system.Presets()) {
		t.Fatalf("units = %d, want %d", len(units), len(system.Presets()))
	}
	for i, p := range system.Presets() {
		if units[i].Preset != p {
			t.Fatalf("unit %d preset = %s, want %s", i, units[i].Preset, p)
		}
	}
}

// TestExpandOverrideAxis pins where the override points sit in the
// expansion order: topology (outer), then override point, then preset,
// then the job's own sweep. Every unit of a point shares one *Overrides.
func TestExpandOverrideAxis(t *testing.T) {
	sc := parse(t, `{
	  "name": "axis",
	  "platform": {"toruses": ["4x2x2", "4x4x2"], "presets": ["BaselineCommOpt", "ACE"],
	               "overrides": [{"comm_mem_gbps": 64}, {"comm_mem_gbps": 128, "comm_sms": 80}, {"intra_gbps": 100}]},
	  "jobs": [{"kind": "collective", "payloads_mb": [1, 2]}]
	}`)
	units, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	toruses := []noc.Topology{noc.Torus3(4, 2, 2), noc.Torus3(4, 4, 2)}
	presets := []system.Preset{system.BaselineCommOpt, system.ACE}
	overs := sc.Platform.Overrides
	if want := len(toruses) * len(overs) * len(presets) * 2; len(units) != want {
		t.Fatalf("units = %d, want %d", len(units), want)
	}
	i := 0
	for _, tp := range toruses {
		for oi := range overs {
			for _, p := range presets {
				for _, b := range []int64{1 << 20, 2 << 20} {
					u := units[i]
					if u.Index != i || !u.Topo.Equal(tp) || u.Overrides != &overs[oi] || u.Preset != p || u.Bytes != b {
						t.Fatalf("unit %d = %s %s [%s] %d, want %s %s [%s] %d",
							i, u.Topo, u.Preset, u.Overrides, u.Bytes, tp, p, &overs[oi], b)
					}
					i++
				}
			}
		}
	}
	if got := units[2].Overrides.String(); got != "comm_mem_gbps=64" {
		t.Fatalf("override label = %q", got)
	}
	// Without overrides the axis collapses to one nil point.
	plain := parse(t, `{"name": "plain", "platform": {"toruses": ["4x2x2"]}, "jobs": [{"kind": "collective", "payloads_mb": [1]}]}`)
	units, err = plain.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		if u.Overrides != nil {
			t.Fatalf("unit %d carries overrides %s without an override list", u.Index, u.Overrides)
		}
	}
}

// TestValidateOverridePoints rejects override points the platform cannot
// build, at validate time and naming the offending point, instead of
// failing (or silently mis-simulating) at run time.
func TestValidateOverridePoints(t *testing.T) {
	cases := []struct {
		name, points, want string
	}{
		{"comm SMs above the SM count", `{"comm_sms": 500}`, "comm SMs 500 out of range"},
		{"negative comm SMs", `{"comm_sms": -1}`, "comm SMs -1 out of range"},
		{"comm mem above HBM", `{"comm_mem_gbps": 901}`, "comm mem BW 901 out of range"},
		{"negative comm mem", `{"comm_mem_gbps": -5}`, "comm mem BW -5 out of range"},
		{"negative intra link", `{"intra_gbps": -200}`, "link bandwidth must be positive"},
		{"tiny negative intra link", `{"intra_gbps": -1}`, "link bandwidth must be positive"},
		{"zero inter link", `{"inter_gbps": 0}`, "link bandwidth must be positive"},
		{"zero ACE SRAM", `{"ace_sram_bytes": 0}`, "non-positive ACE parameters"},
		{"negative ACE FSMs", `{"ace_fsms": -4}`, "non-positive ACE parameters"},
		{"link efficiency above 1", `{"link_efficiency": 1.5}`, "link efficiency must be in (0, 1]"},
		{"zero link efficiency", `{"link_efficiency": 0}`, "link efficiency must be in (0, 1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The bad point sits second, after a good one.
			sc := parse(t, `{"name": "x", "platform": {"toruses": ["4x2x2"],
			  "overrides": [{"comm_mem_gbps": 128}, `+tc.points+`]},
			  "jobs": [{"kind": "collective", "payloads_mb": [1]}]}`)
			err := sc.Validate()
			if err == nil {
				t.Fatal("validated a bad override point")
			}
			for _, want := range []string{"platform.overrides[1]", tc.want} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not mention %q", err, want)
				}
			}
		})
	}
	// The boundaries themselves are valid points.
	sc := parse(t, `{"name": "x", "platform": {"toruses": ["4x2x2"],
	  "overrides": [{"comm_sms": 80, "comm_mem_gbps": 900}, {"comm_sms": 0, "comm_mem_gbps": 0}, {"intra_gbps": 0.5},
	                {"link_efficiency": 1}, {"link_efficiency": 0.01}]},
	  "jobs": [{"kind": "collective", "payloads_mb": [1]}]}`)
	if err := sc.Validate(); err != nil {
		t.Fatalf("boundary points rejected: %v", err)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"name": "x", "jbos": []}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Parse(strings.NewReader(`{"name": "x", "jobs": []} trailing`)); err == nil {
		t.Fatal("trailing data accepted")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"missing name", `{"jobs": [{"kind": "microbench", "payloads_mb": [1], "kernels": [{"gemm_n": 8}]}]}`, "missing name"},
		{"no jobs", `{"name": "x"}`, "no jobs"},
		{"unknown kind", `{"name": "x", "jobs": [{"kind": "bench"}]}`, "unknown kind"},
		{"bad torus", `{"name": "x", "platform": {"toruses": ["4xZ"]}, "jobs": [{"kind": "collective", "payloads_mb": [1]}]}`, "bad topology"},
		{"degenerate torus", `{"name": "x", "platform": {"toruses": ["4x0x2"]}, "jobs": [{"kind": "collective", "payloads_mb": [1]}]}`, "invalid topology"},
		{"bad preset", `{"name": "x", "platform": {"toruses": ["4x2x2"], "presets": ["Turbo"]}, "jobs": [{"kind": "collective", "payloads_mb": [1]}]}`, "unknown preset"},
		{"no platform", `{"name": "x", "jobs": [{"kind": "collective", "payloads_mb": [1]}]}`, "requires a platform"},
		{"empty toruses", `{"name": "x", "platform": {"toruses": []}, "jobs": [{"kind": "collective", "payloads_mb": [1]}]}`, "both empty"},
		{"no payloads", `{"name": "x", "platform": {"toruses": ["4x2x2"]}, "jobs": [{"kind": "collective"}]}`, "no payloads"},
		{"negative payload", `{"name": "x", "platform": {"toruses": ["4x2x2"]}, "jobs": [{"kind": "collective", "payloads_mb": [-4]}]}`, "non-positive payload"},
		{"bad collective", `{"name": "x", "platform": {"toruses": ["4x2x2"]}, "jobs": [{"kind": "collective", "collective": "gather", "payloads_mb": [1]}]}`, "unknown collective"},
		{"no workloads", `{"name": "x", "platform": {"toruses": ["4x2x2"]}, "jobs": [{"kind": "training"}]}`, "no workloads"},
		{"bad workload", `{"name": "x", "platform": {"toruses": ["4x2x2"]}, "jobs": [{"kind": "training", "workloads": ["bert"]}]}`, "unknown model"},
		{"stray field", `{"name": "x", "platform": {"toruses": ["4x2x2"]}, "jobs": [{"kind": "training", "workloads": ["dlrm"], "payloads_mb": [1]}]}`, "do not apply"},
		{"no kernels", `{"name": "x", "jobs": [{"kind": "microbench", "payloads_mb": [1]}]}`, "no kernels"},
		{"ambiguous kernel", `{"name": "x", "jobs": [{"kind": "microbench", "payloads_mb": [1], "kernels": [{"gemm_n": 8, "emb_batch": 8}]}]}`, "exactly one"},
		{"empty kernel", `{"name": "x", "jobs": [{"kind": "microbench", "payloads_mb": [1], "kernels": [{}]}]}`, "exactly one"},
		{"unknown metric", `{"name": "x", "jobs": [{"kind": "microbench", "payloads_mb": [1], "kernels": [{"gemm_n": 8}]}], "assertions": [{"metric": "latency", "op": ">", "value": 0}]}`, "unknown metric"},
		{"unknown op", `{"name": "x", "jobs": [{"kind": "microbench", "payloads_mb": [1], "kernels": [{"gemm_n": 8}]}], "assertions": [{"metric": "slowdown", "op": "~", "value": 0}]}`, "unknown op"},
		{"metric kind mismatch", `{"name": "x", "jobs": [{"kind": "microbench", "payloads_mb": [1], "kernels": [{"gemm_n": 8}]}], "assertions": [{"metric": "slowdown", "op": ">", "value": 0, "kind": "training"}]}`, "belongs to"},
		{"bad assertion preset", `{"name": "x", "jobs": [{"kind": "microbench", "payloads_mb": [1], "kernels": [{"gemm_n": 8}]}], "assertions": [{"metric": "slowdown", "op": ">", "value": 0, "preset": "Nope"}]}`, "unknown preset"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := Parse(strings.NewReader(tc.src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			err = sc.Validate()
			if err == nil {
				t.Fatalf("validated bad scenario")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestAssertionHolds(t *testing.T) {
	cases := []struct {
		op   string
		v    float64
		want bool
	}{
		{">=", 1, true}, {">=", 0.5, false},
		{"<=", 1, true}, {"<=", 1.5, false},
		{">", 1.1, true}, {">", 1, false},
		{"<", 0.9, true}, {"<", 1, false},
		{"==", 1, true}, {"==", 2, false},
		{"!=", 2, true}, {"!=", 1, false},
	}
	for _, tc := range cases {
		a := Assertion{Metric: "slowdown", Op: tc.op, Value: 1}
		if got := a.Holds(tc.v); got != tc.want {
			t.Errorf("%g %s 1 = %v, want %v", tc.v, tc.op, got, tc.want)
		}
	}
}

func TestParseCollective(t *testing.T) {
	for _, s := range []string{"", "allreduce", "AllReduce", "all-reduce"} {
		if k, err := ParseCollective(s); err != nil || k.String() != "all-reduce" {
			t.Fatalf("ParseCollective(%q) = %v, %v", s, k, err)
		}
	}
	if k, err := ParseCollective("alltoall"); err != nil || k.String() != "all-to-all" {
		t.Fatalf("ParseCollective(alltoall) = %v, %v", k, err)
	}
	if _, err := ParseCollective("broadcast"); err == nil {
		t.Fatal("accepted broadcast")
	}
}

const multijobScenario = `{
  "name": "mj",
  "platform": {"toruses": ["4x2x2"], "presets": ["ACE"]},
  "jobs": [
    {"kind": "multijob", "jobs": [
      {"name": "a", "workload": "resnet50", "placement": "4x1x2@0,0,0"},
      {"name": "b", "workload": "resnet50", "placement": "4x1x2@0,1,0"}
    ]},
    {"kind": "multijob", "arbitration": "round-robin", "jobs": [
      {"workload": "resnet50"},
      {"collective": "allreduce", "payload_mb": 16, "repeat": 8}
    ]}
  ],
  "assertions": [
    {"metric": "job_slowdown_max", "op": "<", "value": 1.01, "job": 0},
    {"metric": "job_slowdown_max", "op": ">=", "value": 1.0, "job": 1}
  ]
}`

func TestExpandMultiJob(t *testing.T) {
	sc := parse(t, multijobScenario)
	units, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 {
		t.Fatalf("units = %d, want 2", len(units))
	}
	u := units[0]
	if u.Kind != KindMultiJob || len(u.SubJobs) != 2 {
		t.Fatalf("unit 0 = %+v", u)
	}
	if u.SubJobs[0].Name != "a" || u.SubJobs[0].Workload != "ResNet-50" {
		t.Fatalf("sub-job names/workloads not canonicalized: %+v", u.SubJobs[0])
	}
	if units[1].SubJobs[0].Name != "job0" || units[1].SubJobs[1].Name != "job1" {
		t.Fatalf("default sub-job names: %+v", units[1].SubJobs)
	}
	if units[1].Arbitration != "round-robin" {
		t.Fatalf("arbitration = %q", units[1].Arbitration)
	}
	if !units[1].SubJobs[0].IsTraining() || units[1].SubJobs[1].IsTraining() {
		t.Fatal("sub-job kinds misclassified")
	}
	if got := units[1].SubJobs[1].StreamBytes(); got != 16<<20 {
		t.Fatalf("stream payload = %d", got)
	}
}

func TestValidateMultiJobErrors(t *testing.T) {
	mj := func(jobs string, extra string) string {
		return `{"name": "x", "platform": {"toruses": ["4x2x2"]}, "jobs": [{"kind": "multijob"` + extra + `, "jobs": [` + jobs + `]}]}`
	}
	cases := []struct{ name, src, want string }{
		{"no sub-jobs", mj(``, ``), "no sub-jobs"},
		{"no platform", `{"name": "x", "jobs": [{"kind": "multijob", "jobs": [{"workload": "resnet50"}]}]}`, "requires a platform"},
		{"bad workload", mj(`{"workload": "bert"}`, ``), "unknown model"},
		{"empty sub-job", mj(`{}`, ``), "needs a workload or a positive stream payload"},
		{"both kinds", mj(`{"workload": "resnet50", "payload_mb": 4}`, ``), "mutually exclusive"},
		{"bad placement", mj(`{"workload": "resnet50", "placement": "9x9x9"}`, ``), "does not fit"},
		{"mixed modes", mj(`{"workload": "resnet50"}, {"workload": "resnet50", "placement": "4x1x2@0,1,0"}`, ``), "cannot mix"},
		{"overlap", mj(`{"workload": "resnet50", "placement": "4x2x2"}, {"workload": "resnet50", "placement": "4x1x2@0,1,0"}`, ``), "overlap"},
		{"dup names", mj(`{"name": "j", "workload": "resnet50"}, {"name": "j", "workload": "resnet50"}`, ``), "duplicate sub-job name"},
		{"bad arbitration", mj(`{"workload": "resnet50"}`, `, "arbitration": "fifo"`), "unknown arbitration"},
		{"stray sweep", `{"name": "x", "platform": {"toruses": ["4x2x2"]}, "jobs": [{"kind": "multijob", "payloads_mb": [1], "jobs": [{"workload": "resnet50"}]}]}`, "do not apply"},
		{"stray group iterations", `{"name": "x", "platform": {"toruses": ["4x2x2"]}, "jobs": [{"kind": "multijob", "iterations": 8, "jobs": [{"workload": "resnet50"}]}]}`, "do not apply"},
		{"stray sub-jobs on training", `{"name": "x", "platform": {"toruses": ["4x2x2"]}, "jobs": [{"kind": "training", "workloads": ["resnet50"], "jobs": [{"workload": "resnet50"}]}]}`, "do not apply"},
		{"stray arbitration on collective", `{"name": "x", "platform": {"toruses": ["4x2x2"]}, "jobs": [{"kind": "collective", "payloads_mb": [1], "arbitration": "rr"}]}`, "do not apply"},
		{"bad stream collective", mj(`{"collective": "gather", "payload_mb": 4}`, ``), "unknown collective"},
		{"negative repeat", mj(`{"payload_mb": 4, "repeat": -1}`, ``), "negative repeat"},
		{"stream iterations", mj(`{"payload_mb": 4, "iterations": 2}`, ``), "only applies to training"},
		{"assertion job range", `{"name": "x", "platform": {"toruses": ["4x2x2"]}, "jobs": [{"kind": "multijob", "jobs": [{"workload": "resnet50"}]}], "assertions": [{"metric": "job_slowdown_max", "op": ">", "value": 0, "job": 3}]}`, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := Parse(strings.NewReader(tc.src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			err = sc.Validate()
			if err == nil {
				t.Fatal("validated bad scenario")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestExpandGraphJob(t *testing.T) {
	sc := parse(t, `{
	  "name": "graphs",
	  "platform": {"toruses": ["4x2x2"], "presets": ["ACE", "Ideal"]},
	  "jobs": [
	    {"kind": "graph", "pipeline": {"workload": "gnmt", "stages": 4, "microbatches": 2, "schedule": "1f1b"}},
	    {"kind": "graph", "graph": "traces/hand.json"}
	  ],
	  "assertions": [{"metric": "graph_exposed_us", "op": ">=", "value": 0}]
	}`)
	units, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 4 {
		t.Fatalf("expanded %d units, want 4 (2 jobs x 2 presets)", len(units))
	}
	if units[0].Kind != KindGraph || units[0].Pipeline == nil || units[0].Pipeline.Workload != "gnmt" {
		t.Fatalf("unit 0 = %+v", units[0])
	}
	// Parsed from a reader: relative graph paths stay relative.
	if units[2].GraphFile != "traces/hand.json" {
		t.Fatalf("unit 2 graph file %q", units[2].GraphFile)
	}
}

func TestValidateGraphErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"both", `{"name":"x","platform":{"toruses":["4x2x2"]},"jobs":[
		  {"kind":"graph","graph":"a.json","pipeline":{"workload":"gnmt","stages":4,"microbatches":2}}]}`,
			"exactly one"},
		{"neither", `{"name":"x","platform":{"toruses":["4x2x2"]},"jobs":[{"kind":"graph"}]}`,
			"exactly one"},
		{"no platform", `{"name":"x","jobs":[{"kind":"graph","graph":"a.json"}]}`,
			"platform"},
		{"bad schedule", `{"name":"x","platform":{"toruses":["4x2x2"]},"jobs":[
		  {"kind":"graph","pipeline":{"workload":"gnmt","stages":4,"microbatches":2,"schedule":"zero-bubble"}}]}`,
			"schedule"},
		{"indivisible", `{"name":"x","platform":{"toruses":["4x2x2"]},"jobs":[
		  {"kind":"graph","pipeline":{"workload":"gnmt","stages":5,"microbatches":2}}]}`,
			"divisible"},
		{"hybrid workload", `{"name":"x","platform":{"toruses":["4x2x2"]},"jobs":[
		  {"kind":"graph","pipeline":{"workload":"dlrm","stages":4,"microbatches":2}}]}`,
			"data-parallel"},
		{"stray fields", `{"name":"x","platform":{"toruses":["4x2x2"]},"jobs":[
		  {"kind":"graph","graph":"a.json","payloads_mb":[1]}]}`,
			"do not apply"},
	}
	for _, c := range cases {
		sc := parse(t, c.src)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: validated", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestParseTopologyField: bad topologies entries are rejected at parse
// time (Topology.UnmarshalJSON validates both the string and the object
// form).
func TestParseTopologyField(t *testing.T) {
	for _, src := range []string{
		`{"name": "x", "platform": {"topologies": ["2048x2048"]}, "jobs": [{"kind": "collective", "payloads_mb": [1]}]}`,
		`{"name": "x", "platform": {"topologies": [{"dims":[{"size":0}]}]}, "jobs": [{"kind": "collective", "payloads_mb": [1]}]}`,
		`{"name": "x", "platform": {"topologies": [{"dims":[{"size":4,"warp":true}]}]}, "jobs": [{"kind": "collective", "payloads_mb": [1]}]}`,
	} {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("parsed scenario with bad topology: %s", src)
		}
	}
	sc, err := Parse(strings.NewReader(`{
	  "name": "x",
	  "platform": {"toruses": ["4x2x2"], "topologies": ["4x4m", {"dims":[{"size":8,"wrap":true,"gbps":100}]}], "presets": ["Ideal"]},
	  "jobs": [{"kind": "collective", "payloads_mb": [1]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	units, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 3 {
		t.Fatalf("expanded %d units, want 3 (toruses + topologies concatenated)", len(units))
	}
	if units[0].Topo.String() != "4x2x2" || units[1].Topo.String() != "4x4m" || units[2].Topo.String() != "8" {
		t.Fatalf("grid order wrong: %s, %s, %s", units[0].Topo, units[1].Topo, units[2].Topo)
	}
	if units[2].Topo.Dims[0].GBps != 100 {
		t.Fatal("per-dimension bandwidth override lost")
	}
}

// relativeGrid is a 4x2x2 platform with two presets, a collective job
// (0), a training job (1) and a microbench job (2); each case appends
// its own relative block and assertions.
const relativeGrid = `{
  "name": "x",
  "platform": {"toruses": ["4x2x2"], "presets": ["BaselineCommOpt", "ACE"]},
  "jobs": [
    {"kind": "collective", "payloads_mb": [1]},
    {"kind": "training", "workloads": ["dlrm"]},
    {"kind": "microbench", "payloads_mb": [1], "kernels": [{"gemm_n": 8}]}
  ]`

func TestValidateRelative(t *testing.T) {
	cases := []struct {
		name, rest, want string // want empty: validates
	}{
		{"presets", `"relative": [{"name": "vs_comm", "metric": "duration_us", "presets": ["BaselineCommOpt"]}],
		  "assertions": [{"metric": "vs_comm", "op": ">", "value": 0, "preset": "ACE"}]`, ""},
		{"job", `"relative": [{"name": "vs_first", "metric": "slowdown", "job": 2}]`, ""},
		{"missing name", `"relative": [{"metric": "duration_us", "job": 0}]`, "needs a name"},
		{"unknown metric", `"relative": [{"name": "r", "metric": "latency", "job": 0}]`, "unknown metric"},
		{"not a kind metric", `"relative": [{"name": "r", "metric": "overlap_frac", "job": 0}]`, "unknown metric"},
		{"shadows kind metric", `"relative": [{"name": "iter_time_us", "metric": "duration_us", "job": 0}]`, "needs a name no other metric has"},
		{"shadows trace metric", `"relative": [{"name": "overlap_frac", "metric": "duration_us", "job": 0}]`, "needs a name no other metric has"},
		{"duplicate name", `"relative": [{"name": "r", "metric": "duration_us", "job": 0}, {"name": "r", "metric": "iter_time_us", "job": 1}]`, "needs a name no other metric has"},
		{"no selector", `"relative": [{"name": "r", "metric": "duration_us"}]`, "exactly one of presets or job"},
		{"two selectors", `"relative": [{"name": "r", "metric": "duration_us", "presets": ["ACE"], "job": 0}]`, "exactly one of presets or job"},
		{"unknown preset", `"relative": [{"name": "r", "metric": "duration_us", "presets": ["Turbo"]}]`, `no collective unit runs preset "Turbo"`},
		{"preset outside grid", `"relative": [{"name": "r", "metric": "duration_us", "presets": ["Ideal"]}]`, `no collective unit runs preset "Ideal"`},
		{"job out of range", `"relative": [{"name": "r", "metric": "duration_us", "job": 3}]`, "job 3 runs no collective units"},
		{"job of another kind", `"relative": [{"name": "r", "metric": "duration_us", "job": 1}]`, "job 1 runs no collective units"},
		{"microbench presets", `"relative": [{"name": "r", "metric": "slowdown", "presets": ["ACE"]}]`, "microbench units have no preset"},
		{"no unit of the metric's kind", `"relative": [{"name": "r", "metric": "graph_span_us", "presets": ["ACE"]}]`, `no graph unit runs preset "ACE"`},
		{"no job reports the metric", `"relative": [{"name": "r", "metric": "graph_span_us", "job": 0}]`, "job 0 runs no graph units"},
		{"assertion kind mismatch", `"relative": [{"name": "r", "metric": "duration_us", "job": 0}],
		  "assertions": [{"metric": "r", "op": ">", "value": 0, "kind": "training"}]`, "belongs to collective"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := parse(t, relativeGrid+",\n"+tc.rest+"}").Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateAssertionFiltersInGrid rejects, at validate time, filters
// that select no unit of the grid: such an assertion could only fail
// with "matched no units" after simulating everything.
func TestValidateAssertionFiltersInGrid(t *testing.T) {
	cases := []struct {
		name, assertion string
		ok              bool
	}{
		{"preset in grid", `{"metric": "iter_time_us", "op": ">", "value": 0, "preset": "ACE"}`, true},
		{"workload alias", `{"metric": "iter_time_us", "op": ">", "value": 0, "workload": "DLRM", "topology": "4X2X2"}`, true},
		{"preset outside grid", `{"metric": "duration_us", "op": ">", "value": 0, "preset": "Ideal"}`, false},
		{"topology outside grid", `{"metric": "duration_us", "op": ">", "value": 0, "topology": "4x4x4"}`, false},
		{"workload no job runs", `{"metric": "iter_time_us", "op": ">", "value": 0, "workload": "gnmt"}`, false},
		{"kind no job has", `{"metric": "overlap_frac", "op": ">", "value": 0, "kind": "graph"}`, false},
		{"metric kind no job has", `{"metric": "job_slowdown_max", "op": ">", "value": 0}`, false},
		{"preset on microbench", `{"metric": "slowdown", "op": ">", "value": 0, "preset": "ACE"}`, false},
		{"job of another kind", `{"metric": "duration_us", "op": ">", "value": 0, "job": 1}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := relativeGrid + `, "trace": {"enabled": true}, "assertions": [` + tc.assertion + `]}`
			err := parse(t, src).Validate()
			if tc.ok != (err == nil) {
				t.Fatalf("validate = %v, want ok %v", err, tc.ok)
			}
			if err != nil && !strings.Contains(err.Error(), "no unit of the grid matches") {
				t.Fatalf("error %v does not name the grid", err)
			}
		})
	}
}
