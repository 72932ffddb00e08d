// Package system assembles complete simulated training platforms from the
// paper's Table V parameters and Table VI system configurations, and
// provides the experiment runners behind every figure and table.
package system

import (
	"fmt"

	"acesim/internal/collectives"
	"acesim/internal/core"
	"acesim/internal/des"
	"acesim/internal/fault"
	"acesim/internal/graph"
	"acesim/internal/noc"
	"acesim/internal/npu"
	"acesim/internal/power"
	"acesim/internal/resource"
	"acesim/internal/stats"
	"acesim/internal/trace"
	"acesim/internal/training"
)

// Preset selects one of the five Table VI system configurations.
type Preset uint8

// Table VI configurations.
const (
	BaselineNoOverlap Preset = iota
	BaselineCommOpt
	BaselineCompOpt
	ACE
	Ideal
)

// Presets lists all five configurations in the paper's order.
func Presets() []Preset {
	return []Preset{BaselineNoOverlap, BaselineCommOpt, BaselineCompOpt, ACE, Ideal}
}

// String names the preset as in the paper.
func (p Preset) String() string {
	switch p {
	case BaselineNoOverlap:
		return "BaselineNoOverlap"
	case BaselineCommOpt:
		return "BaselineCommOpt"
	case BaselineCompOpt:
		return "BaselineCompOpt"
	case ACE:
		return "ACE"
	case Ideal:
		return "Ideal"
	}
	return "unknown"
}

// ParsePreset resolves a preset name (case-sensitive, as printed).
func ParsePreset(s string) (Preset, error) {
	for _, p := range Presets() {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("system: unknown preset %q", s)
}

// Spec fully describes a simulated platform.
type Spec struct {
	Topo   noc.Topology
	Preset Preset
	NPU    npu.Params
	Intra  noc.LinkClass
	Inter  noc.LinkClass
	ACE    core.ACEConfig
	Coll   collectives.Config
	// TraceBucket > 0 enables utilization traces (Fig 10).
	TraceBucket des.Time
	// Tracer, when non-nil, attaches the span collector to the engine
	// before any component is built: every layer then emits per-op spans
	// onto named tracks (see internal/trace). Nil disables tracing with
	// zero overhead.
	Tracer *trace.Tracer
	// Faults, when non-nil, schedules the timed event track on the engine
	// at build time. Events without a job scope target this fabric; tracks
	// that down links enable the fabric's faults under Faults.Recovery's
	// policy. Job-scoped events are only meaningful under BuildMulti,
	// which handles them itself.
	Faults *fault.Track
	// Engine selects the communication execution fidelity: full DES (the
	// default), the hybrid shadow fast path, or the closed-form analytic
	// model. Hybrid and analytic are refused (with counted reasons) when
	// the build carries anything that breaks their assumptions — extra
	// streams, fault tracks, recovery policies, tracing. Utilization
	// traces and power windows do not refuse hybrid: its shadow twin
	// keeps both and folds them back. Analytic has no twin and books no
	// busy time on links or ACEs, so it refuses utilization traces.
	Engine collectives.Engine
	// Power, when non-nil, enables energy accounting: a windowed power
	// sampler is attached to every component at build time and the
	// lifetime meters become joules via Power.Coeff after the run
	// (System.PowerReport). Nil disables it with zero overhead, like
	// the tracer. Power does not refuse the hybrid fast path: the
	// shadow twin keeps the config and its sampler folds back.
	Power *power.Config
}

// DefaultLinkClasses returns the Table V link parameters.
func DefaultLinkClasses() (intra, inter noc.LinkClass) {
	intra = noc.LinkClass{GBps: 200, LatCycles: 90, Efficiency: 0.94, FreqGHz: 1.245}
	inter = noc.LinkClass{GBps: 25, LatCycles: 500, Efficiency: 0.94, FreqGHz: 1.245}
	return
}

// NewSpec returns the Table V platform on the given fabric topology in
// the given Table VI configuration. Any topology works — the paper's 3D
// LxVxH torus (noc.Torus3), 1D rings, 2D/4D tori, and meshes with
// per-dimension link overrides.
func NewSpec(t noc.Topology, p Preset) Spec {
	np := npu.DefaultParams()
	switch p {
	case BaselineNoOverlap:
		np.CommMemGBps, np.CommSMs = 900, 80
		np.ExclusiveComm = true
	case BaselineCommOpt:
		np.CommMemGBps, np.CommSMs = 450, 6
	case BaselineCompOpt:
		np.CommMemGBps, np.CommSMs = 128, 2
	case ACE:
		np.CommMemGBps, np.CommSMs = 128, 0
	case Ideal:
		np.CommMemGBps, np.CommSMs = 0, 0
	}
	intra, inter := DefaultLinkClasses()
	plan := collectives.HierarchicalAllReduce(t)
	phases := len(plan.Phases)
	if phases == 0 {
		phases = 1
	}
	return Spec{
		Topo:   t,
		Preset: p,
		NPU:    np,
		Intra:  intra,
		Inter:  inter,
		ACE:    core.DefaultACEConfig(phases),
		Coll:   collectives.DefaultConfig(),
	}
}

// PowerDefaults returns the default energy coefficients for a preset,
// Table-VI style: every configuration shares the Table V device
// constants (compute pJ/cycle, HBM pJ/byte, link pJ/bit, leakage),
// the ACE preset adds the engine's busy draw and leakage, and the
// Ideal preset's free endpoint also costs no endpoint energy.
func PowerDefaults(p Preset) power.Coefficients {
	c := power.Coefficients{
		ComputePJPerCycle: 200_000, // ~249 W dynamic at 1.245 GHz
		HBMPJPerByte:      30,
		DMABusyW:          15,
		LinkPJPerBit:      10,
		ForwardPJPerByte:  5,
		StaticNPUW:        75,
		StaticLinkW:       1,
	}
	switch p {
	case ACE:
		c.ACEBusyW = 10
		c.StaticACEW = 2
	case Ideal:
		// The ideal endpoint moves bytes for free; it costs no
		// endpoint energy either.
		c.HBMPJPerByte = 0
		c.DMABusyW = 0
	}
	return c
}

// Schedule returns the training schedule this preset uses (Table VI).
func (s Spec) Schedule() training.Schedule {
	if s.Preset == BaselineNoOverlap {
		return training.NoOverlap
	}
	return training.Overlap
}

// System is a fully wired simulated platform.
type System struct {
	Spec     Spec
	Eng      *des.Engine
	Net      *noc.Network
	Nodes    []*npu.Node
	Eps      []core.Endpoint
	ACEs     []*core.ACE // non-nil entries only for Preset == ACE
	RT       *collectives.Runtime
	Computes []*npu.Compute

	// Sampler is the windowed power timeline (nil unless Spec.Power is
	// set). Its group traces are charged by busy-interval observers.
	Sampler *power.Sampler
	// Utilization traces for Fig 10 and Fig 9b (nil unless
	// Spec.TraceBucket > 0): link busy time summed over every link, and
	// node 0's compute and ACE occupancy (ACEUtil stays nil without
	// ACEs).
	LinkUtil    *stats.Trace
	ComputeUtil *stats.Trace
	ACEUtil     *stats.Trace

	// departFns run when a job_depart event fires on this system.
	departFns []func()
	departed  bool
}

// OnDepart registers a callback for job_depart events (typically the
// launch's Cancel). Registering after a departure already fired runs the
// callback immediately — the job is already gone.
func (s *System) OnDepart(fn func()) {
	if s.departed {
		fn()
		return
	}
	s.departFns = append(s.departFns, fn)
}

func (s *System) depart() {
	s.departed = true
	for _, fn := range s.departFns {
		fn()
	}
	s.departFns = nil
}

// Validate rejects a platform the components cannot simulate
// faithfully: out-of-range NPU parameters, a malformed ACE
// configuration, a non-positive link bandwidth or a link efficiency
// outside (0, 1] (which would run and report meaningless timings).
func (s Spec) Validate() error {
	if err := s.NPU.Validate(); err != nil {
		return err
	}
	if err := s.ACE.Validate(); err != nil {
		return err
	}
	if !(s.Intra.GBps > 0) || !(s.Inter.GBps > 0) {
		return fmt.Errorf("system: link bandwidth must be positive (intra %g GB/s, inter %g GB/s)", s.Intra.GBps, s.Inter.GBps)
	}
	if !(s.Intra.Efficiency > 0 && s.Intra.Efficiency <= 1) || !(s.Inter.Efficiency > 0 && s.Inter.Efficiency <= 1) {
		return fmt.Errorf("system: link efficiency must be in (0, 1] (intra %g, inter %g)", s.Intra.Efficiency, s.Inter.Efficiency)
	}
	return nil
}

// Build constructs the platform on a fresh engine.
func Build(spec Spec) (*System, error) {
	return BuildOn(des.NewEngine(), spec)
}

// BuildOn constructs the platform on an existing engine, so several
// sub-fabrics (one per partitioned job) can co-simulate in one timeline.
// Passing a fresh engine is exactly Build.
func BuildOn(eng *des.Engine, spec Spec) (*System, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Tracer != nil {
		// Must precede the runtime build: it registers its tracks off
		// eng.Tracer().
		eng.SetTracer(spec.Tracer)
	}
	net, err := noc.New(eng, noc.Config{
		Topo:  spec.Topo,
		Intra: spec.Intra,
		Inter: spec.Inter,
	})
	if err != nil {
		return nil, err
	}
	s := &System{Spec: spec, Eng: eng, Net: net}

	if spec.Preset == ACE {
		plan := collectives.HierarchicalAllReduce(spec.Topo)
		parts, maxChunk := acePartitions(spec.ACE, plan, spec)
		spec.ACE.Partitions = parts
		if spec.Coll.MaxChunkBytes == 0 || spec.Coll.MaxChunkBytes > maxChunk {
			spec.Coll.MaxChunkBytes = maxChunk
		}
		s.Spec = spec
	}

	n := spec.Topo.N()
	for i := 0; i < n; i++ {
		smCapped := spec.Preset == BaselineNoOverlap || spec.Preset == BaselineCommOpt || spec.Preset == BaselineCompOpt
		node, err := npu.NewNode(eng, i, spec.NPU, smCapped)
		if err != nil {
			return nil, err
		}
		s.Nodes = append(s.Nodes, node)
		s.Computes = append(s.Computes, node.Compute())

		var ep core.Endpoint
		switch spec.Preset {
		case ACE:
			ace, err := core.NewACE(eng, node, spec.ACE)
			if err != nil {
				return nil, err
			}
			s.ACEs = append(s.ACEs, ace)
			ep = ace
		case Ideal:
			ep = core.NewIdeal(eng, spec.NPU.FreqGHz)
		default:
			ep = core.NewBaseline(eng, node, core.DefaultBaselineConfig())
		}
		s.Eps = append(s.Eps, ep)
	}
	s.observe()
	if spec.Faults.NeedsRecovery() {
		net.EnableFaults(spec.Faults.Recovery.Policy())
	}
	s.RT = collectives.NewRuntime(eng, net, s.Eps, spec.Coll)
	s.wireHybrid()
	if spec.Faults != nil {
		// Only fabric-scoped events: job-scoped ones carry partition-local
		// coordinates and are scheduled by BuildMulti against the right
		// sub-system. (Exception: a scope-less job_depart targets this
		// system's single job.)
		var own []fault.Event
		for _, e := range spec.Faults.Events {
			if e.Job == "" {
				own = append(own, e)
			}
		}
		fault.Schedule(eng, own, fault.Target{
			Net:      net,
			Computes: s.Computes,
			Depart:   func(string) { s.depart() },
		})
	}
	return s, nil
}

// observe attaches the busy-interval observers the spec asks for to
// every component: Fig 10/9b utilization windows (TraceBucket), spans
// on the engine's tracer, and power windows (Power) — compute kernels
// into the Compute group, comm-mem reads into HBM, and links, DMA buses
// and ACE servers into Fabric. Tracks register links first, then per
// node hbm, bus.tx, bus.rx, compute and ace, so track IDs follow
// construction order. Static leakage is a read-time constant on the
// sampler — it needs no events.
func (s *System) observe() {
	bucket, tr := s.Spec.TraceBucket, s.Eng.Tracer()
	var sm *power.Sampler
	var c power.Coefficients
	if p := s.Spec.Power; p != nil {
		c, sm = p.Coeff, power.NewSampler(p.Window)
		sm.StaticW = c.StaticW(len(s.Nodes), len(s.ACEs), s.Net.NumLinks())
		s.Sampler = sm
	}
	if bucket > 0 {
		s.LinkUtil, s.ComputeUtil = stats.NewTrace(bucket), stats.NewTrace(bucket)
		s.Nodes[0].Compute().Observe(busy(s.ComputeUtil))
		if len(s.ACEs) > 0 {
			s.ACEUtil = stats.NewTrace(bucket)
			s.ACEs[0].Observe(busy(s.ACEUtil))
		}
	}
	for _, l := range s.Net.Links() {
		srv := l.Server()
		if bucket > 0 {
			srv.Observe(busy(s.LinkUtil))
		}
		if tr != nil {
			srv.Observe(span(tr, srv.Name(), int(l.From), trace.KindLink, trace.CatLink, srv.Name()))
		}
		if sm != nil {
			srv.Observe(perByte(sm.Fabric, c.LinkPJPerByte(), srv))
		}
	}
	for i, node := range s.Nodes {
		cp := node.Compute()
		if tr != nil {
			node.CommMem.Observe(span(tr, fmt.Sprintf("npu%d/hbm", i), i, trace.KindHBM, trace.CatHBM, "hbm.read"))
			node.BusTX.Observe(span(tr, fmt.Sprintf("npu%d/bus.tx", i), i, trace.KindDMA, trace.CatDMA, "bus.tx"))
			node.BusRX.Observe(span(tr, fmt.Sprintf("npu%d/bus.rx", i), i, trace.KindDMA, trace.CatDMA, "bus.rx"))
			track := tr.RegisterTrack(fmt.Sprintf("npu%d/compute", i), i, trace.KindCompute)
			cp.Observe(func(start, end des.Time, bytes int64) {
				tr.Span(track, tr.Label(trace.CatCompute, cp.KernelName()), int64(start), int64(end), bytes)
			})
		}
		if sm != nil {
			cp.Observe(draw(sm.Compute, c.ComputeW(s.Spec.NPU.FreqGHz)))
			node.CommMem.Observe(perByte(sm.HBM, c.HBMPJPerByte, node.CommMem))
			node.BusTX.Observe(draw(sm.Fabric, c.DMABusyW))
			node.BusRX.Observe(draw(sm.Fabric, c.DMABusyW))
		}
		if len(s.ACEs) == 0 {
			continue
		}
		ace := s.ACEs[i]
		if tr != nil {
			ace.Observe(span(tr, fmt.Sprintf("npu%d/ace", i), i, trace.KindACE, trace.CatACE, "ace.active"))
		}
		if sm != nil {
			// The "ACE busy" coefficient is per engine server, so the
			// lifetime totals (EngineBusy) and the timeline agree.
			for _, srv := range ace.Servers() {
				srv.Observe(draw(sm.Fabric, c.ACEBusyW))
			}
		}
	}
}

// busy returns an observer adding each interval to a utilization trace.
func busy(t *stats.Trace) resource.Observer {
	return func(start, end des.Time, _ int64) { t.AddBusy(start, end) }
}

// span registers a track and a label and returns an observer recording
// each interval as a span on it, with the interval's bytes as the
// argument.
func span(tr *trace.Tracer, track string, node int, kind trace.Kind, cat, name string) resource.Observer {
	id, label := tr.RegisterTrack(track, node, kind), tr.Label(cat, name)
	return func(start, end des.Time, bytes int64) {
		tr.Span(id, label, int64(start), int64(end), bytes)
	}
}

// draw returns an observer charging a fixed watts draw into tl.
func draw(tl *stats.Trace, watts float64) resource.Observer {
	return func(start, end des.Time, _ int64) { tl.AddEnergy(start, end, watts) }
}

// perByte returns an observer charging pJPerByte per byte srv serves,
// spread over the service interval at srv's current rate (GB/s x
// pJ/byte = 1e-3 W): after a rate change (contention, a degraded
// link) each byte still costs pJPerByte.
func perByte(tl *stats.Trace, pJPerByte float64, srv *resource.Server) resource.Observer {
	return func(start, end des.Time, _ int64) { tl.AddEnergy(start, end, pJPerByte*srv.Rate()*1e-3) }
}

// PowerUsage snapshots the lifetime meters the energy model prices.
// Integer sums only: two engines whose meters agree (the hybrid
// golden-equality guarantee) produce identical usage and therefore
// identical joules. Call after the run (and after FoldHybrid).
func (s *System) PowerUsage() power.Usage {
	u := power.Usage{
		FreqGHz:     s.Spec.NPU.FreqGHz,
		Nodes:       len(s.Nodes),
		ACEs:        len(s.ACEs),
		Links:       s.Net.NumLinks(),
		WireBytes:   s.Net.TotalWireBytes(),
		InjectedBts: s.Net.InjectedBytes(),
		Makespan:    s.Eng.Now(),
	}
	for _, n := range s.Nodes {
		u.ComputeBusy += n.Compute().BusyTime()
		u.HBMBytes += n.CommMem.Meter.Total() + n.WriteMeter.Total()
		u.DMABusy += n.BusTX.BusyTime() + n.BusRX.BusyTime()
	}
	for _, a := range s.ACEs {
		u.ACEBusy += a.EngineBusy()
	}
	return u
}

// PowerReport derives the energy/power breakdown when energy
// accounting is enabled (PeakW from the sampler, everything else from
// the lifetime meters). The second return is false when Spec.Power is
// nil.
func (s *System) PowerReport() (power.Breakdown, bool) {
	if s.Spec.Power == nil {
		return power.Breakdown{}, false
	}
	b := s.Spec.Power.Coeff.Energy(s.PowerUsage())
	if s.Sampler != nil {
		b.PeakW = s.Sampler.PeakW(s.Eng.Now())
	}
	return b, true
}

// wireHybrid arms (or refuses, with a counted reason) the runtime's
// non-DES engine modes after the runtime exists. The hybrid shadow twin
// is a rebuild of the same spec without tracer or faults on a private
// engine; it keeps the utilization traces and the power sampler. Fold
// maps its meters and windows back onto this system (node-0-replicated
// when the shadow ran mirrored).
func (s *System) wireHybrid() {
	spec := s.Spec
	if spec.Engine == collectives.EngineDES {
		s.RT.EnableHybrid(collectives.EngineDES, collectives.HybridHooks{}, "")
		return
	}
	reason := ""
	switch {
	case spec.Coll.Streams > 1:
		reason = "multijob-streams"
	case spec.Faults.NeedsRecovery():
		reason = "fault-recovery"
	case spec.Faults != nil:
		reason = "fault-track"
	case spec.Tracer != nil || s.Eng.Tracer() != nil:
		reason = "tracing"
	case spec.Engine == collectives.EngineAnalytic && spec.TraceBucket > 0:
		reason = "utilization"
	}
	dims := spec.Topo.NumDims()
	costs := &collectives.AnalyticCosts{
		DimRateGBps: make([]float64, dims),
		DimLatency:  make([]des.Time, dims),
	}
	for d := 0; d < dims; d++ {
		c := s.Net.DimClass(noc.Dim(d))
		costs.DimRateGBps[d] = c.EffGBps()
		costs.DimLatency[d] = c.Latency()
	}
	hooks := collectives.HybridHooks{
		Analytic: costs,
		NewShadow: func() (*collectives.Shadow, error) {
			shSpec := spec
			shSpec.Engine = collectives.EngineDES
			shSpec.Tracer = nil
			shSpec.Faults = nil
			tw, err := BuildOn(des.NewEngine(), shSpec)
			if err != nil {
				return nil, err
			}
			fold := func(mirror bool) { s.absorb(tw, mirror) }
			return &collectives.Shadow{RT: tw.RT, Eng: tw.Eng, Fold: fold}, nil
		},
	}
	s.RT.EnableHybrid(spec.Engine, hooks, reason)
}

// absorb folds a hybrid shadow twin's lifetime meters, utilization
// traces and power windows into s in one pass. Every server takes its
// twin's busy time and one byte-meter entry for its total. A mirrored
// twin ran only node 0's symmetric share: each node's servers and
// outgoing links take node 0's, while the fabric-wide totals (injected
// bytes, link utilization, power windows) scale by N — the windows as
// integer busy picoseconds and femtojoules, so the fold is exact. Node
// 0's ACE occupancy comes from the twin's node 0 either way; its compute
// occupancy needs no fold, since kernels run only on the primary.
func (s *System) absorb(tw *System, mirror bool) {
	times, src := int64(1), func(i int) int { return i }
	if mirror {
		times, src = int64(len(s.Nodes)), func(int) int { return 0 }
	}
	for i, node := range s.Nodes {
		o := tw.Nodes[src(i)]
		node.CommMem.Absorb(o.CommMem)
		node.BusTX.Absorb(o.BusTX)
		node.BusRX.Absorb(o.BusRX)
		if t := o.WriteMeter.Total(); t != 0 {
			node.WriteMeter.Add(t)
		}
		if len(s.ACEs) > 0 {
			from := tw.ACEs[src(i)].Servers()
			for k, srv := range s.ACEs[i].Servers() {
				srv.Absorb(from[k])
			}
		}
	}
	for _, l := range s.Net.Links() {
		l.Server().Absorb(tw.Net.Link(noc.NodeID(src(int(l.From))), l.Dim, l.Dir).Server())
	}
	s.Net.AddTraffic(0, tw.Net.InjectedBytes()*times)
	s.LinkUtil.AbsorbFrom(tw.LinkUtil, times)
	s.ACEUtil.AbsorbFrom(tw.ACEUtil, 1)
	s.Sampler.AbsorbFrom(tw.Sampler, times)
}

// FoldHybrid merges an engaged hybrid shadow's statistics into this
// system's meters. Idempotent; runners call it once the engine drains.
func (s *System) FoldHybrid() { s.RT.FoldHybrid() }

// Plans returns the topology-aware collective plans for this platform.
func (s *System) Plans() graph.Plans {
	return graph.Plans{
		AllReduce: collectives.HierarchicalAllReduce(s.Spec.Topo),
		AllToAll:  collectives.DirectAllToAll(s.Spec.Topo.N()),
	}
}

// Executor builds a graph executor on this platform (issue stream 0). Every
// job starts on one: training loops (training.Start), synthesized pipeline
// schedules and hand-written JSON traces.
func (s *System) Executor() *graph.Executor {
	return &graph.Executor{
		Eng:      s.Eng,
		RT:       s.RT,
		Computes: s.Computes,
		Plans:    s.Plans(),
	}
}

// acePartitions applies the Section IV-I sizing heuristic: each phase's
// partition is proportional to (phase link bandwidth x phase input bytes),
// with the terminal partition sized like the last phase. It also derives
// the largest chunk whose per-phase residency fits every partition.
func acePartitions(cfg core.ACEConfig, plan collectives.Plan, spec Spec) ([]int64, int64) {
	const ref = 1 << 20 // reference chunk for linear residency factors
	shapes := collectives.Shapes(plan, ref)
	if len(shapes) == 0 {
		even := cfg.SRAMBytes / int64(cfg.Phases+1)
		parts := make([]int64, cfg.Phases+1)
		for i := range parts {
			parts[i] = even
		}
		return parts, even
	}
	intraBW := 2 * spec.Intra.EffGBps()
	interBW := 2 * spec.Inter.EffGBps()
	weights := make([]float64, 0, len(shapes)+1)
	var sum float64
	for _, sh := range shapes {
		bw := interBW
		if sh.Dim == noc.DimLocal {
			bw = intraBW
		}
		w := bw * float64(sh.In)
		weights = append(weights, w)
		sum += w
	}
	weights = append(weights, weights[len(weights)-1]) // terminal = last phase
	sum += weights[len(weights)-1]

	parts := make([]int64, len(weights))
	minPart := int64(4 << 10)
	var used int64
	for i, w := range weights {
		p := int64(float64(cfg.SRAMBytes) * w / sum)
		if p < minPart {
			p = minPart
		}
		parts[i] = p
		used += p
	}
	// Largest admissible chunk: every phase partition must hold at least
	// two chunks' residency (double buffering — without it a chunk
	// serializes behind the inter-package link latency and the DMA
	// starves; Section IV-I picks parameters "enough to fill most of the
	// network pipeline").
	const depth = 2
	maxChunk := cfg.SRAMBytes
	for i, sh := range shapes {
		factor := float64(sh.Resident) / float64(ref)
		if limit := int64(float64(parts[i]) / factor / depth); limit < maxChunk {
			maxChunk = limit
		}
	}
	last := shapes[len(shapes)-1]
	termFactor := float64(last.Out) / float64(ref)
	if limit := int64(float64(parts[len(parts)-1]) / termFactor); limit < maxChunk {
		maxChunk = limit
	}
	if maxChunk < 4<<10 {
		maxChunk = 4 << 10
	}
	return parts, maxChunk
}
