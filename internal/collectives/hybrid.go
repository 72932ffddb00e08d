package collectives

import (
	"fmt"

	"acesim/internal/core"
	"acesim/internal/des"
	"acesim/internal/noc"
)

// The hybrid fast path. A system built with Engine == EngineHybrid keeps
// the full DES machinery but executes its communication on a *shadow*
// twin system: a second, stripped build of the same spec (no tracer, no
// fault track) driven by its own des.Engine that is kept in lockstep
// with the primary timeline. On an all-wraparound fabric the shadow runs
// in *mirror* mode — only node 0's issues are injected and its ring
// deliveries loop back to itself — which cuts the communication event
// count by ~N while producing picosecond-identical completion times, by
// the same rotation symmetry the LIFO scheduler already relies on. The
// moment anything breaks the symmetry argument (an all-to-all phase, a
// point-to-point transfer, nodes issuing a collective at different
// instants, a completion arriving before every node has issued), the
// mirror downgrades to a full 1:1 shadow by replaying its injection log
// at the original times, so correctness never depends on the workload
// cooperating.
//
// Engagement is all-or-nothing per run and decided at the first
// injection: a runtime whose engine has already seen a rate perturbation
// (Server.SetRate — the Fig 4 contention harness) refuses the fast path
// and falls back to ordinary DES execution on the primary system.
// Build-time blockers (multiple streams, fault tracks, tracing) are
// recorded by system.Build via EnableHybrid/BlockHybrid and keep the
// runtime on plain DES with zero overhead.
//
// EngineAnalytic skips the shadow entirely: each fully issued collective
// completes in one scheduled event at the closed-form EstimateDuration
// time, and fabric byte meters are fed from AnalyzeOn. It is documented
// as approximate — endpoint meters stay at zero and durations ignore
// endpoint serialization and contention.

// Engine selects the communication execution engine for a system.
type Engine uint8

// Engine modes.
const (
	// EngineDES is the full discrete-event simulation (the default).
	EngineDES Engine = iota
	// EngineHybrid runs communication on a shadow twin (mirrored when
	// the topology allows), exact to the picosecond on uncontended runs,
	// falling back to full DES semantics otherwise.
	EngineHybrid
	// EngineAnalytic completes collectives at closed-form times and
	// accounts fabric bytes analytically. Fast and approximate.
	EngineAnalytic
)

// String names the engine mode.
func (e Engine) String() string {
	switch e {
	case EngineDES:
		return "des"
	case EngineHybrid:
		return "hybrid"
	case EngineAnalytic:
		return "analytic"
	}
	return "unknown"
}

// ParseEngine resolves an engine name; empty defaults to des.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "des":
		return EngineDES, nil
	case "hybrid":
		return EngineHybrid, nil
	case "analytic":
		return EngineAnalytic, nil
	}
	return 0, fmt.Errorf("collectives: unknown engine %q (want des, hybrid or analytic)", s)
}

// Shadow is one stripped twin system the hybrid fast path executes
// communication on. system.Build supplies the constructor and the fold
// closure; the runtime only drives the engine and the twin runtime.
type Shadow struct {
	RT  *Runtime
	Eng *des.Engine
	// Fold merges the shadow's lifetime statistics (link and endpoint
	// meters, busy times) into the primary system. mirror selects the
	// node-0-replicated mapping.
	Fold func(mirror bool)
}

// HybridHooks wires the runtime's fast path to the owning system.
type HybridHooks struct {
	// NewShadow builds a fresh shadow twin. Called once at engagement
	// and once more on a mirror downgrade.
	NewShadow func() (*Shadow, error)
	// Analytic carries the per-dimension link costs for EngineAnalytic.
	Analytic *AnalyticCosts
}

// HybridStats reports what the fast path did over a run.
type HybridStats struct {
	Mode        string         // requested engine mode
	Engaged     bool           // the fast path actually ran
	Mirror      bool           // node-0 mirror shadow active at end of run
	Downgrades  int            // mirror -> full shadow downgrades
	Collectives int            // collectives taken by the fast path
	P2P         int            // point-to-point transfers taken
	ShadowSteps uint64         // events executed by shadow engines
	Blocked     map[string]int // refusal / fallback reason counts
}

// EnableHybrid arms the runtime's fast path. A non-empty blockReason
// records a build-time refusal instead (the runtime stays on plain DES
// with zero overhead). mode EngineDES is a no-op.
func (rt *Runtime) EnableHybrid(mode Engine, hooks HybridHooks, blockReason string) {
	rt.hybMode = mode
	if mode == EngineDES {
		return
	}
	if blockReason != "" {
		rt.blockHybrid(blockReason)
		return
	}
	if mode == EngineHybrid && hooks.NewShadow == nil {
		panic("collectives: EngineHybrid requires a NewShadow hook")
	}
	if mode == EngineAnalytic && hooks.Analytic == nil {
		panic("collectives: EngineAnalytic requires analytic costs")
	}
	rt.hyb = &hybridState{rt: rt, mode: mode, hooks: hooks, colls: map[*Collective]*hybColl{}}
}

// BlockHybrid disarms the fast path with a counted reason (e.g. a
// multi-job build sharing the fabric). Must run before any issue.
func (rt *Runtime) BlockHybrid(reason string) {
	if h := rt.hyb; h != nil && h.decided && !h.refused {
		panic("collectives: BlockHybrid after the fast path engaged")
	}
	rt.hyb = nil
	rt.blockHybrid(reason)
}

func (rt *Runtime) blockHybrid(reason string) {
	if rt.hybBlocked == nil {
		rt.hybBlocked = map[string]int{}
	}
	rt.hybBlocked[reason]++
}

// HybridStats reports the fast path's engagement, fallbacks and refusal
// reasons for the run so far.
func (rt *Runtime) HybridStats() HybridStats {
	st := HybridStats{Mode: rt.hybMode.String(), Blocked: map[string]int{}}
	for k, v := range rt.hybBlocked {
		st.Blocked[k] = v
	}
	if h := rt.hyb; h != nil {
		st.Engaged = h.decided && !h.refused
		st.Mirror = h.mirror
		st.Downgrades = h.downgrades
		st.Collectives = h.nColls
		st.P2P = h.nP2P
		st.ShadowSteps = h.priorSteps
		if h.sh != nil {
			st.ShadowSteps += h.sh.Eng.Steps()
		}
	}
	return st
}

// FoldHybrid merges the shadow twin's statistics into the primary
// system's meters. Idempotent; a no-op unless the fast path engaged in
// hybrid mode. Callers run it once after the primary engine drains.
func (rt *Runtime) FoldHybrid() {
	h := rt.hyb
	if h == nil || h.folded || h.sh == nil {
		return
	}
	h.folded = true
	h.sh.Fold(h.mirror)
}

// hybColl is the fast path's bookkeeping for one primary Collective.
type hybColl struct {
	c        *Collective
	issuedBy []bool
	issued   int
	lastAt   des.Time // latest issue instant (analytic mode)
	relayed  bool     // mirror relay delivered every node's completion
}

// injRecord is one mirror-era injection, kept so a downgrade can replay
// the exact issue history into a full shadow.
type injRecord struct {
	at   des.Time
	node noc.NodeID
	coll *Collective
}

// hybridState drives the engaged fast path on the primary runtime.
type hybridState struct {
	rt    *Runtime
	mode  Engine
	hooks HybridHooks

	decided   bool
	refused   bool
	perturbs0 uint64

	sh         *Shadow
	mirror     bool
	downgraded bool
	injLog     []injRecord
	colls      map[*Collective]*hybColl

	pumpArmed bool
	pumpAt    des.Time
	pumpEpoch uint64

	priorSteps uint64 // steps of abandoned (downgraded) shadow engines
	downgrades int
	nColls     int
	nP2P       int
	folded     bool
}

// engage decides the fast path at the first injection. It refuses when
// the engine has already been perturbed (rates rewired before the run:
// the contended Fig 4 harness), which is the one uncontended-detection
// signal that only exists at runtime.
func (h *hybridState) engage() bool {
	if h.decided {
		return !h.refused
	}
	h.decided = true
	if h.rt.eng.Perturbs() != 0 {
		h.refused = true
		h.rt.blockHybrid("rate-perturbation")
		return false
	}
	h.perturbs0 = h.rt.eng.Perturbs()
	if h.mode == EngineHybrid {
		sh, err := h.hooks.NewShadow()
		if err != nil {
			panic(fmt.Sprintf("collectives: hybrid shadow build: %v", err))
		}
		h.sh = sh
		h.mirror = h.mirrorEligible()
		sh.RT.mirror = h.mirror
	}
	return true
}

// mirrorEligible reports whether the node-0 mirror shadow is exact on
// this fabric: every dimension wraps (or is degenerate), so the fabric
// is rotation-symmetric and node 0's outgoing links carry exactly the
// traffic any node's incoming links would.
func (h *hybridState) mirrorEligible() bool {
	t := h.rt.net.Topo()
	if t.N() <= 1 {
		return false
	}
	for d := 0; d < t.NumDims(); d++ {
		dim := noc.Dim(d)
		if t.Size(dim) > 1 && !t.Wrap(dim) {
			return false
		}
	}
	return true
}

// checkPerturb is the backstop against rates changing under an engaged
// fast path; every path that could perturb mid-run is refused at build
// or engagement time, so this is unreachable unless a new caller of
// Server.SetRate appears.
func (h *hybridState) checkPerturb() {
	if h.rt.eng.Perturbs() != h.perturbs0 {
		panic("collectives: rate perturbation under an engaged hybrid fast path")
	}
}

// sync brings the shadow timeline up to the primary engine's now:
// every shadow event at or before now runs (relays schedule primary
// completions at their exact times), then the shadow clock advances to
// now so subsequent injections land at the right instant.
func (h *hybridState) sync() {
	now := h.rt.eng.Now()
	for {
		se := h.sh.Eng // re-read: a relay can downgrade mid-drain
		na, ok := se.NextAt()
		if !ok || na > now {
			break
		}
		se.Step()
	}
	if se := h.sh.Eng; se.Now() < now {
		se.AdvanceTo(now)
	}
}

// pumpDrain runs shadow events in a batch, as far ahead of the primary
// clock as causality allows: nothing can be injected into the shadow
// before the primary engine's next pending event, so every shadow event
// at or before that instant is safe to run now. Relays scheduled during
// the drain land in the primary queue (at exact times, always >= the
// pump instant) and tighten the bound, so the loop re-reads it each
// step. This is what keeps the fast path fast — the primary engine pays
// one pump event per work alternation, not one per shadow event.
func (h *hybridState) pumpDrain() {
	me := h.rt.eng
	for {
		se := h.sh.Eng // re-read: a relay can downgrade mid-drain
		na, ok := se.NextAt()
		if !ok {
			return
		}
		if mn, mok := me.NextAt(); mok && na > mn {
			return
		}
		se.Step()
	}
}

// armPump schedules one primary event at exactly the shadow's next
// event time, so the shadow is drained at precise instants (relays are
// never time-shifted) and the primary run cannot end while shadow work
// is pending.
func (h *hybridState) armPump() {
	na, ok := h.sh.Eng.NextAt()
	if !ok {
		h.pumpArmed = false
		return
	}
	if h.pumpArmed && h.pumpAt == na {
		return
	}
	h.pumpArmed = true
	h.pumpAt = na
	h.pumpEpoch++
	e := h.pumpEpoch
	h.rt.eng.At(na, func() {
		if h.pumpEpoch != e {
			return // superseded by a re-arm or downgrade
		}
		h.pumpArmed = false
		h.pumpDrain()
		h.armPump()
	})
}

// completeMain finishes the primary-side collective at node, exactly as
// chunkDoneAt would have.
func (h *hybridState) completeMain(c *Collective, node noc.NodeID) {
	c.completeAt[node] = h.rt.eng.Now()
	if fn := c.nodeDone[node]; fn != nil {
		fn()
	}
}

// fullRelay builds the shadow-side completion callback for (c, node) in
// full (1:1) mode: the primary completion fires at the shadow's exact
// completion instant.
func (h *hybridState) fullRelay(c *Collective, node noc.NodeID, se *des.Engine) func() {
	return func() {
		t := se.Now()
		h.rt.eng.At(t, func() { h.completeMain(c, node) })
	}
}

// onMirrorComplete handles node 0's shadow completion in mirror mode.
// By rotation symmetry every node completes at this instant — but only
// if the primary collective was issued by all nodes at one instant. A
// completion arriving earlier means the mirror's symmetry assumption
// broke invisibly (in a real run no node can finish before every node
// has attached), so the mirror downgrades and the replayed full shadow
// completes the collective properly.
func (h *hybridState) onMirrorComplete(hc *hybColl) {
	if !h.mirror {
		return // stale callback from an abandoned mirror shadow
	}
	c := hc.c
	if hc.issued < len(c.nodeDone) {
		h.downgrade("early-completion")
		return
	}
	t := h.sh.Eng.Now()
	hc.relayed = true
	for n := range c.nodeDone {
		node := noc.NodeID(n)
		h.rt.eng.At(t, func() { h.completeMain(c, node) })
	}
}

// downgrade abandons the mirror shadow and replays the mirror-era issue
// history into a fresh full shadow at the original instants. Sticky:
// the run finishes in full-shadow mode.
func (h *hybridState) downgrade(reason string) {
	if h.downgraded {
		return
	}
	h.downgraded = true
	h.mirror = false
	h.downgrades++
	h.rt.blockHybrid(reason)
	h.pumpEpoch++ // invalidate any pump aimed at the old shadow
	h.pumpArmed = false
	h.priorSteps += h.sh.Eng.Steps()
	nsh, err := h.hooks.NewShadow()
	if err != nil {
		panic(fmt.Sprintf("collectives: hybrid downgrade: %v", err))
	}
	nsh.RT.mirror = false
	h.sh = nsh
	for i := range h.injLog {
		rec := h.injLog[i]
		hc := h.colls[rec.coll]
		var done func()
		if !hc.relayed {
			// Mirror relays are all-or-nothing per collective; anything
			// not yet relayed gets its real per-node relay now.
			done = h.fullRelay(rec.coll, rec.node, nsh.Eng)
		}
		nsh.Eng.At(rec.at, func() { nsh.RT.IssueOn(rec.coll.stream, rec.node, rec.coll.spec, done) })
	}
	h.injLog = nil
	h.sync()
	h.armPump()
}

// planHasA2A reports whether any phase is an all-to-all. Routed a2a
// transfers put other nodes' forwarded traffic on node 0's links, which
// breaks the mirror's symmetry argument.
func planHasA2A(p Plan) bool {
	for _, ph := range p.Phases {
		if ph.Kind == core.PhaseAllToAll {
			return true
		}
	}
	return false
}

// take claims one node's issue of a collective for the fast path.
// Returns false when the fast path refused the run (caller falls back
// to plain DES attachment).
func (h *hybridState) take(c *Collective, node noc.NodeID, onDone func()) bool {
	if !h.engage() {
		return false
	}
	h.checkPerturb()
	now := h.rt.eng.Now()
	hc := h.colls[c]
	if hc == nil {
		hc = &hybColl{c: c, issuedBy: make([]bool, len(c.nodeDone))}
		h.colls[c] = hc
		h.nColls++
	}
	if hc.issuedBy[node] {
		panic(fmt.Sprintf("collectives: node %d attached twice to %q", node, c.spec.Name))
	}
	hc.issuedBy[node] = true
	hc.issued++
	c.nodeDone[node] = onDone
	if h.mode == EngineAnalytic {
		h.analyticIssue(hc, now)
		return true
	}
	if h.mirror {
		switch {
		case planHasA2A(c.spec.Plan):
			h.downgrade("all-to-all")
		case now != c.issuedAt:
			h.downgrade("asymmetric-issue")
		}
	}
	if h.mirror {
		h.injLog = append(h.injLog, injRecord{at: now, node: node, coll: c})
		if node == 0 {
			h.sync()
			h.sh.RT.IssueOn(c.stream, 0, c.spec, func() { h.onMirrorComplete(hc) })
			h.armPump()
		}
		return true
	}
	h.sync()
	h.sh.RT.IssueOn(c.stream, node, c.spec, h.fullRelay(c, node, h.sh.Eng))
	h.armPump()
	return true
}

// takeP2P claims one point-to-point transfer for the fast path.
func (h *hybridState) takeP2P(src, dst noc.NodeID, bytes int64, onDelivered func()) bool {
	if !h.engage() {
		return false
	}
	h.checkPerturb()
	h.nP2P++
	if h.mode == EngineAnalytic {
		h.analyticP2P(src, dst, bytes, onDelivered)
		return true
	}
	if h.mirror {
		// A p2p transfer is inherently asymmetric across the fabric.
		h.downgrade("point-to-point")
	}
	h.sync()
	se := h.sh.Eng
	h.sh.RT.SendP2P(src, dst, bytes, func() {
		t := se.Now()
		h.rt.eng.At(t, onDelivered)
	})
	h.armPump()
	return true
}

// analyticIssue completes a collective at the closed-form time once the
// last node has issued, and feeds the fabric's analytic byte meters.
// Endpoint meters are deliberately not modeled (documented
// approximation of EngineAnalytic).
func (h *hybridState) analyticIssue(hc *hybColl, now des.Time) {
	if now > hc.lastAt {
		hc.lastAt = now
	}
	c := hc.c
	if hc.issued < len(c.nodeDone) {
		return
	}
	topo := h.rt.net.Topo()
	t := hc.lastAt + EstimateDuration(*h.hooks.Analytic, topo, c.spec.Plan, c.sizes)
	var wire, inj int64
	for _, sz := range c.sizes {
		ft, err := AnalyzeOn(topo, c.spec.Plan, sz)
		if err != nil {
			panic(fmt.Sprintf("collectives: analytic accounting for %q: %v", c.spec.Name, err))
		}
		wire += ft.Wire
		inj += ft.Injected
	}
	h.rt.net.AddTraffic(wire, inj)
	for n := range c.nodeDone {
		node := noc.NodeID(n)
		h.rt.eng.At(t, func() { h.completeMain(c, node) })
	}
}

// analyticP2P prices a routed transfer at hops store-and-forward legs of
// the slowest non-degenerate dimension's link cost.
func (h *hybridState) analyticP2P(src, dst noc.NodeID, bytes int64, onDelivered func()) {
	topo := h.rt.net.Topo()
	hops := int64(len(topo.RouteXYZ(src, dst)))
	c := h.hooks.Analytic
	var per des.Time
	for d := 0; d < topo.NumDims(); d++ {
		if topo.Size(noc.Dim(d)) <= 1 || d >= len(c.DimRateGBps) {
			continue
		}
		if leg := des.ByteDur(bytes, c.DimRateGBps[d]) + c.DimLatency[d]; leg > per {
			per = leg
		}
	}
	h.rt.net.AddTraffic(hops*bytes, bytes)
	h.rt.eng.At(h.rt.eng.Now()+des.Time(hops)*per, onDelivered)
}
