package fault

import (
	"strings"
	"testing"

	"acesim/internal/des"
	"acesim/internal/noc"
	"acesim/internal/npu"
	"acesim/internal/trace"
)

func intp(v int) *int { return &v }

func TestEventValidate(t *testing.T) {
	tor := noc.Torus3(4, 2, 2)
	link := &LinkRef{Node: 0, Dim: 0, Dir: 1}
	cases := []struct {
		name string
		e    Event
		bad  string // substring of the expected error; "" means valid
	}{
		{"down ok", Event{Action: LinkDown, Link: link}, ""},
		{"up ok", Event{Action: LinkUp, Link: link}, ""},
		{"negative time", Event{AtUs: -1, Action: LinkDown, Link: link}, "negative"},
		{"down no link", Event{Action: LinkDown}, "needs a link"},
		{"bad node", Event{Action: LinkDown, Link: &LinkRef{Node: 99, Dim: 0, Dir: 1}}, "out of range"},
		{"bad dim", Event{Action: LinkDown, Link: &LinkRef{Node: 0, Dim: 7, Dir: 1}}, "out of range"},
		{"bad dir", Event{Action: LinkDown, Link: &LinkRef{Node: 0, Dim: 0, Dir: 2}}, "+1 or -1"},
		{"degrade ok", Event{Action: LinkDegrade, Link: link, Factor: 0.5}, ""},
		{"degrade no factor", Event{Action: LinkDegrade, Link: link}, "factor"},
		{"straggler ok", Event{Action: Straggler, Node: intp(3), Factor: 2}, ""},
		{"straggler all nodes", Event{Action: Straggler, Factor: 2}, ""},
		{"straggler no factor", Event{Action: Straggler}, "factor"},
		{"straggler bad node", Event{Action: Straggler, Node: intp(16), Factor: 2}, "out of range"},
		{"checkpoint ok", Event{Action: Checkpoint, CostUs: 100}, ""},
		{"checkpoint no cost", Event{Action: Checkpoint}, "cost_us"},
		{"depart ok", Event{Action: JobDepart, Job: "a"}, ""},
		{"unknown", Event{Action: "explode"}, "unknown action"},
	}
	for _, c := range cases {
		err := c.e.Validate(tor)
		if c.bad == "" && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if c.bad != "" && (err == nil || !strings.Contains(err.Error(), c.bad)) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.bad)
		}
	}
	// Mesh boundary links do not exist.
	mesh := noc.Topology{Dims: []noc.DimSpec{{Size: 4}}}
	e := Event{Action: LinkDown, Link: &LinkRef{Node: 3, Dim: 0, Dir: 1}}
	if err := e.Validate(mesh); err == nil || !strings.Contains(err.Error(), "no link") {
		t.Errorf("mesh boundary: error %v, want no-link", err)
	}
}

func TestRecoveryValidateAndPolicy(t *testing.T) {
	var nilRec *Recovery
	if err := nilRec.Validate(); err != nil {
		t.Fatalf("nil recovery: %v", err)
	}
	if err := (&Recovery{Backoff: 0.5}).Validate(); err == nil {
		t.Fatal("backoff < 1 accepted")
	}
	if err := (&Recovery{TimeoutUs: -1}).Validate(); err == nil {
		t.Fatal("negative timeout accepted")
	}
	if err := (&Recovery{MaxRetries: -1}).Validate(); err == nil {
		t.Fatal("negative max_retries accepted")
	}
	// Nil and zero-valued recovery lower to the defaults.
	p := nilRec.Policy()
	if p.Timeout <= 0 || p.Backoff < 1 || p.MaxRetries <= 0 {
		t.Fatalf("default policy %+v not filled", p)
	}
	q := (&Recovery{TimeoutUs: 5, Backoff: 3, MaxRetries: 2}).Policy()
	if q.Timeout != des.Micros(5) || q.Backoff != 3 || q.MaxRetries != 2 {
		t.Fatalf("policy %+v, want overrides", q)
	}
}

func TestNeedsRecovery(t *testing.T) {
	if NeedsRecovery([]Event{{Action: Straggler}, {Action: Checkpoint}}) {
		t.Fatal("straggler/checkpoint do not need recovery")
	}
	if !NeedsRecovery([]Event{{Action: LinkDown}}) {
		t.Fatal("link_down needs recovery")
	}
	var nilTrack *Track
	if nilTrack.NeedsRecovery() {
		t.Fatal("nil track needs no recovery")
	}
}

// schedTarget builds an engine + fault-enabled fabric + computes for
// scheduler tests.
func schedTarget(t *testing.T, tracer *trace.Tracer) (*des.Engine, Target) {
	t.Helper()
	eng := des.NewEngine()
	eng.SetTracer(tracer)
	net, err := noc.New(eng, noc.Config{
		Topo:  noc.Torus3(4, 1, 1),
		Intra: noc.LinkClass{GBps: 200, LatCycles: 90, Efficiency: 0.94, FreqGHz: 1.245},
		Inter: noc.LinkClass{GBps: 25, LatCycles: 500, Efficiency: 0.94, FreqGHz: 1.245},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.EnableFaults((*Recovery)(nil).Policy())
	computes := make([]*npu.Compute, 4)
	for i := range computes {
		computes[i] = npu.NewCompute(eng, npu.DefaultParams())
	}
	return eng, Target{Net: net, Computes: computes}
}

func TestSchedulerAppliesEvents(t *testing.T) {
	eng, tg := schedTarget(t, nil)
	departed := ""
	tg.Depart = func(job string) { departed = job }
	Schedule(eng, []Event{
		{AtUs: 10, Action: LinkDown, Link: &LinkRef{Node: 0, Dim: 0, Dir: 1}},
		{AtUs: 30, Action: LinkUp, Link: &LinkRef{Node: 0, Dim: 0, Dir: 1}},
		{AtUs: 40, Action: Straggler, Node: intp(2), Factor: 3},
		{AtUs: 50, Action: Checkpoint, Node: intp(1), CostUs: 7},
		{AtUs: 60, Action: JobDepart, Job: "tenant"},
	}, tg)
	// Probe the link state between the down and up events.
	var midDown, endUp bool
	eng.At(des.Micros(20), func() { midDown = !tg.Net.LinkUp(0, 0, +1) })
	eng.At(des.Micros(35), func() { endUp = tg.Net.LinkUp(0, 0, +1) })
	eng.Run()
	if !midDown || !endUp {
		t.Fatalf("link window wrong: down@20=%v up@35=%v", midDown, endUp)
	}
	if departed != "tenant" {
		t.Fatalf("departed = %q", departed)
	}
	// The straggler factor applies to future kernels on node 2 only.
	k := npu.Kernel{Name: "k", MACs: 1e9, Bytes: 1e6}
	if n2, n3 := tg.Computes[2].KernelTime(k), tg.Computes[3].KernelTime(k); n2 != 3*n3 {
		t.Fatalf("straggler kernel %v, want 3x nominal %v", n2, n3)
	}
}

func TestSchedulerEmitsFaultSpans(t *testing.T) {
	tracer := trace.New()
	eng, tg := schedTarget(t, tracer)
	Schedule(eng, []Event{
		{AtUs: 10, Action: LinkDown, Link: &LinkRef{Node: 0, Dim: 0, Dir: 1}},
		{AtUs: 30, Action: LinkUp, Link: &LinkRef{Node: 0, Dim: 0, Dir: 1}},
		{AtUs: 40, Action: LinkDegrade, Link: &LinkRef{Node: 1, Dim: 0, Dir: 1}, Factor: 0.5},
		{AtUs: 60, Action: LinkDegrade, Link: &LinkRef{Node: 1, Dim: 0, Dir: 1}, Factor: 1},
		{AtUs: 70, Action: Checkpoint, Node: intp(0), CostUs: 5},
		// Unclosed window: never restored, so no span.
		{AtUs: 80, Action: LinkDown, Link: &LinkRef{Node: 2, Dim: 0, Dir: 1}},
	}, tg)
	eng.Run()
	var spans []trace.Span
	labels := tracer.Labels()
	for _, s := range tracer.Spans() {
		if labels[s.Label].Cat == trace.CatFault {
			spans = append(spans, s)
		}
	}
	if len(spans) != 3 {
		t.Fatalf("fault spans = %d, want 3 (down window, degrade window, checkpoint)", len(spans))
	}
	// The down window is [10us, 30us].
	found := false
	for _, s := range spans {
		if strings.HasPrefix(labels[s.Label].Name, "link_down") {
			found = true
			if s.Start != int64(des.Micros(10)) || s.End != int64(des.Micros(30)) {
				t.Fatalf("down span [%d,%d], want [10us,30us]", s.Start, s.End)
			}
		}
	}
	if !found {
		t.Fatal("no link_down span emitted")
	}
}

func TestSchedulerNoEventsNoTrack(t *testing.T) {
	// A scheduler that never receives events must not register a tracer
	// track (trace output stays byte-identical without faults).
	tracer := trace.New()
	eng, tg := schedTarget(t, tracer)
	NewScheduler(eng, tg)
	eng.Run()
	for _, tr := range tracer.Tracks() {
		if strings.Contains(tr.Name, "faults") {
			t.Fatal("event-free scheduler registered a faults track")
		}
	}
}
