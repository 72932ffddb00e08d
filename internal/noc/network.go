package noc

import (
	"fmt"

	"acesim/internal/des"
	"acesim/internal/resource"
	"acesim/internal/stats"
)

// LinkClass describes one class of physical link (Table V).
type LinkClass struct {
	GBps       float64 // raw bandwidth per link, GB/s
	LatCycles  int     // link latency in cycles at FreqGHz
	Efficiency float64 // fraction of raw bandwidth achievable (0.94)
	FreqGHz    float64 // clock used to convert LatCycles to time
}

// Latency returns the link's propagation latency.
func (c LinkClass) Latency() des.Time { return des.Cycles(c.LatCycles, c.FreqGHz) }

// EffGBps returns the achievable bandwidth. Efficiency must be in
// (0, 1]; system.Spec.Validate rejects any other value.
func (c LinkClass) EffGBps() float64 { return c.GBps * c.Efficiency }

// Link is a unidirectional point-to-point link.
type Link struct {
	From, To NodeID
	Dim      Dim
	Dir      int
	srv      *resource.Server
	lat      des.Time

	// Fault state (only consulted on the fault-aware send paths; see
	// Network.EnableFaults). baseGBps remembers the healthy rate so a
	// degrade factor composes multiplicatively instead of compounding.
	up       bool
	factor   float64
	baseGBps float64
	// epoch increments every time the link goes down. A transfer snapshots
	// the epoch at serialization start and re-checks it at delivery: a
	// mismatch means the link failed underneath the in-flight message,
	// which is then dropped and reported to the OnDrop hook.
	epoch uint64
}

// BusyTime returns the cumulative serialization time on the link.
func (l *Link) BusyTime() des.Time { return l.srv.BusyTime() }

// Bytes returns the total bytes carried.
func (l *Link) Bytes() int64 { return l.srv.Meter.Total() }

// Server returns the link's serialization server (its name, observers
// and lifetime meters).
func (l *Link) Server() *resource.Server { return l.srv }

// Forwarder is the endpoint hook charged at every intermediate hop of a
// routed transfer (store-and-forward through the endpoint). It must call
// fn(arg) once, on the engine, when the forwarding cost has been paid.
type Forwarder func(node NodeID, bytes int64, fn func(any), arg any)

// Config configures a torus/mesh network.
type Config struct {
	Topo  Topology
	Intra LinkClass // dimension-0 links (intra-package)
	Inter LinkClass // higher-dimension links (inter-package)
}

// classFor resolves the link class of dimension d: the intra class on
// dimension 0, the inter class above, with the topology's per-dimension
// bandwidth/latency overrides applied on top.
func (c Config) classFor(d Dim) LinkClass {
	cls := c.Inter
	if d == 0 {
		cls = c.Intra
	}
	ds := c.Topo.Dims[d]
	if ds.GBps > 0 {
		cls.GBps = ds.GBps
	}
	if ds.LatCycles > 0 {
		cls.LatCycles = ds.LatCycles
	}
	return cls
}

// Network is the torus/mesh accelerator fabric. Every node has two links
// (directions +1/-1) per non-degenerate wraparound dimension; mesh
// dimensions omit the boundary (wraparound) links.
type Network struct {
	eng *des.Engine
	cfg Config
	// links indexes every link by linkIndex; nil where none exists.
	links []*Link
	all   []*Link // every link, in construction order
	// Forward is charged at intermediate hops of SendRouted. If nil,
	// forwarding is free.
	Forward  Forwarder
	injected stats.Meter // bytes entering the fabric at source endpoints

	// Fault machinery. faultsOn switches SendNeighbor/SendRouted onto the
	// fault-aware paths; when off (the default) the zero-overhead paths
	// above run unchanged. The hooks mirror the Forward hook pattern: the
	// network reports what happened, the owner (the collective runtime's
	// recovery policy) decides when to retry.
	faultsOn bool
	// extraWire/extraInjected fold traffic that never crossed these links
	// into the fabric totals: the analytic engine mode's exact byte
	// accounting (collectives.AnalyzeOn) and a hybrid shadow's injections
	// still have to show up in TotalWireBytes/InjectedBytes.
	extraWire     int64
	extraInjected int64
	// OnDrop runs when an in-flight transfer is lost: the destination link
	// was down at send time with no healthy detour, or it went down under
	// the message. The handler owns the retry (call d.Retry, now or later).
	OnDrop func(Drop)
	// OnRestore runs every time a link comes back up (wake parked retries).
	OnRestore func()
	// OnRecover runs when a transfer that was dropped at least once finally
	// delivers; attempts counts its drops.
	OnRecover func(attempts int)
	drops     int64
	reroutes  int64
	// xfers holds delivered routed-transfer records for reuse.
	xfers []*routedXfer
}

// linkIndex is the position of the (from, d, dir) link in Network.links.
func (n *Network) linkIndex(from NodeID, d Dim, dir int) int {
	i := (int(from)*n.cfg.Topo.NumDims() + int(d)) * 2
	if dir < 0 {
		i++
	}
	return i
}

// New builds the fabric.
func New(eng *des.Engine, cfg Config) (*Network, error) {
	if err := cfg.Topo.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		eng: eng,
		cfg: cfg,
	}
	t := cfg.Topo
	n.links = make([]*Link, 2*t.N()*t.NumDims())
	for id := NodeID(0); int(id) < t.N(); id++ {
		for d := Dim(0); int(d) < t.NumDims(); d++ {
			if t.Size(d) == 1 {
				continue
			}
			cls := cfg.classFor(d)
			// A 2-ring keeps both direction links: they are distinct
			// wires to the same peer (one bidirectional ring). Mesh
			// dimensions get no boundary link.
			for _, dir := range []int{+1, -1} {
				if !t.HasLink(id, d, dir) {
					continue
				}
				to := t.Neighbor(id, d, dir)
				name := fmt.Sprintf("link(%d,%s,%+d)", id, d, dir)
				l := &Link{
					From: id, To: to, Dim: d, Dir: dir,
					srv: resource.NewServer(eng, name, cls.EffGBps()),
					lat: cls.Latency(),
					up:  true, factor: 1, baseGBps: cls.EffGBps(),
				}
				n.links[n.linkIndex(id, d, dir)] = l
				n.all = append(n.all, l)
			}
		}
	}
	return n, nil
}

// Topo returns the fabric shape.
func (n *Network) Topo() Topology { return n.cfg.Topo }

// NumLinks returns the number of unidirectional links in the fabric.
func (n *Network) NumLinks() int { return len(n.all) }

// Links returns every link in construction order: by source node, then
// dimension, then direction +1 before -1 (shared slice; do not mutate).
func (n *Network) Links() []*Link { return n.all }

// InjectedBytes returns total bytes injected at source endpoints
// (excluding forwarded re-injections).
func (n *Network) InjectedBytes() int64 { return n.injected.Total() + n.extraInjected }

// DimClass returns the resolved link class of dimension d (intra/inter
// selection plus per-dimension overrides) — the same class the links of
// that dimension were built with. The analytic time model prices
// transfers from it.
func (n *Network) DimClass(d Dim) LinkClass { return n.cfg.classFor(d) }

// AddTraffic folds byte accounting for traffic that never serialized
// on these links into the fabric totals: the analytic engine mode's
// closed-form collectives and a hybrid shadow's injections.
func (n *Network) AddTraffic(wire, injected int64) {
	n.extraWire += wire
	n.extraInjected += injected
}

// Link returns the link leaving node from along d in direction dir, or
// nil when there is none.
func (n *Network) Link(from NodeID, d Dim, dir int) *Link {
	t := n.cfg.Topo
	if from < 0 || int(from) >= t.N() || int(d) >= t.NumDims() || (dir != 1 && dir != -1) {
		return nil
	}
	return n.links[n.linkIndex(from, d, dir)]
}

// TotalLinkBusy sums busy time over all links.
func (n *Network) TotalLinkBusy() des.Time {
	var sum des.Time
	for _, l := range n.all {
		sum += l.BusyTime()
	}
	return sum
}

// TotalWireBytes sums bytes over all links (multi-hop transfers count once
// per traversed link).
func (n *Network) TotalWireBytes() int64 {
	sum := n.extraWire
	for _, l := range n.all {
		sum += l.Bytes()
	}
	return sum
}

// SendNeighbor transfers bytes from src to its logical ring neighbor
// along d in direction dir and calls deliver at the destination when the
// full message has arrived. Ring collectives use this path. On a
// wraparound dimension every hop is one physical link; on a mesh (line)
// dimension the boundary hop — the logical ring's closure — has no wire
// and is routed back across the whole line, store-and-forward at every
// intermediate endpoint (the same cost model as routed all-to-all
// traffic). That multi-hop closure is exactly why ring collectives on a
// mesh expose more communication than on a torus of the same size.
func (n *Network) SendNeighbor(src NodeID, d Dim, dir int, bytes int64, deliver func()) {
	n.SendNeighborCtx(src, d, dir, bytes, des.Call, deliver)
}

// SendNeighborCtx is SendNeighbor with delivery in the engine's
// callback-with-context form: fn(arg) runs at the destination. A direct
// hop on a fault-free fabric and a mesh boundary hop on a warm fabric
// schedule it with no allocation; the fault-aware path wraps it in a
// closure.
func (n *Network) SendNeighborCtx(src NodeID, d Dim, dir int, bytes int64, fn func(any), arg any) {
	n.injected.Add(bytes)
	if n.faultsOn || !n.cfg.Topo.HasLink(src, d, dir) {
		n.sendNeighborSlow(src, d, dir, bytes, fn, arg)
		return
	}
	// One scheduled event covers serialization (FIFO at the link's
	// effective rate) and the propagation latency after it.
	l := n.links[n.linkIndex(src, d, dir)]
	l.srv.RequestAfterCtx(bytes, l.lat, fn, arg)
}

// sendNeighborSlow is the neighbor hop with no direct fault-free link:
// the fault-aware path, or a mesh boundary hop routed across the line.
func (n *Network) sendNeighborSlow(src NodeID, d Dim, dir int, bytes int64, fn func(any), arg any) {
	if n.faultsOn {
		n.sendNeighborF(src, d, dir, bytes, func() { fn(arg) }, nil)
		return
	}
	t := n.cfg.Topo
	if t.Size(d) == 1 || t.Wrap(d) {
		panic(fmt.Sprintf("noc: no link from %d along %s dir %+d", src, d, dir))
	}
	// Mesh boundary hop: walk the line to the far end (size-1 physical
	// hops in the opposite direction).
	x := n.newXfer(src, bytes, fn, arg)
	cur := src
	for i := 1; i < t.Size(d); i++ {
		cur = t.Neighbor(cur, d, -dir)
		x.path = append(x.path, cur)
	}
	x.send()
}

// routedXfer is the in-flight state of one multi-hop transfer. It drives
// itself hop by hop through the engine's callback-with-context
// scheduling, replacing the per-hop closure chain the recursive
// formulation would allocate. Records are recycled through the network
// (see newXfer), so a warm fabric routes without allocating.
type routedXfer struct {
	net   *Network
	path  []NodeID // hops after the source, dst last; reused
	cur   NodeID
	bytes int64
	i     int
	// fn(arg) runs at the destination.
	fn  func(any)
	arg any
}

// newXfer returns an idle transfer record from src with an empty path,
// reusing a delivered one when there is one.
func (n *Network) newXfer(src NodeID, bytes int64, fn func(any), arg any) *routedXfer {
	var x *routedXfer
	if k := len(n.xfers); k > 0 {
		x = n.xfers[k-1]
		n.xfers = n.xfers[:k-1]
	} else {
		// Room for the longest route, so a reused path never grows.
		x = &routedXfer{net: n, path: make([]NodeID, 0, n.cfg.Topo.Diameter())}
	}
	x.path, x.cur, x.bytes, x.i, x.fn, x.arg = x.path[:0], src, bytes, 0, fn, arg
	return x
}

// routedServed is the static hop-completion callback (AtCtx form).
func routedServed(a any) { a.(*routedXfer).served() }

// send serializes the transfer on the link toward the next hop.
func (x *routedXfer) send() {
	l := x.net.linkTo(x.cur, x.path[x.i])
	x.cur = x.path[x.i]
	l.srv.RequestAfterCtx(x.bytes, l.lat, routedServed, x)
}

// served runs when the current hop's message has fully arrived: deliver at
// the destination (recycling the record first, so the delivery can
// reuse it), or pay the store-and-forward cost and continue.
func (x *routedXfer) served() {
	if x.i == len(x.path)-1 {
		fn, arg := x.fn, x.arg
		x.fn, x.arg = nil, nil
		x.net.xfers = append(x.net.xfers, x)
		fn(arg)
		return
	}
	if x.net.Forward != nil {
		x.net.Forward(x.cur, x.bytes, routedAdvance, x)
		return
	}
	routedAdvance(x)
}

// routedAdvance moves the transfer to its next hop (the static
// continuation of the Forward hook).
func routedAdvance(a any) {
	x := a.(*routedXfer)
	x.i++
	x.send()
}

// SendRouted transfers bytes from src to an arbitrary dst using XYZ
// dimension-order routing. The Forward hook is charged at every
// intermediate endpoint (store-and-forward); deliver runs at dst.
// src == dst delivers after zero network time.
func (n *Network) SendRouted(src, dst NodeID, bytes int64, deliver func()) {
	n.SendRoutedCtx(src, dst, bytes, des.Call, deliver)
}

// SendRoutedCtx is SendRouted with delivery in the engine's
// callback-with-context form: fn(arg) runs at dst. On a fault-free
// fabric with a warm record pool it allocates nothing; the fault-aware
// path wraps the callback in a closure.
func (n *Network) SendRoutedCtx(src, dst NodeID, bytes int64, fn func(any), arg any) {
	n.injected.Add(bytes)
	if src == dst {
		n.eng.AfterCtx(0, fn, arg)
		return
	}
	if n.faultsOn {
		n.sendRoutedF(src, dst, bytes, func() { fn(arg) }, nil)
		return
	}
	x := n.newXfer(src, bytes, fn, arg)
	x.path = n.cfg.Topo.AppendRouteXYZ(x.path, src, dst)
	x.send()
}

// ---------------------------------------------------------------------------
// Fault injection: mutable link state with in-flight drop detection.
//
// The fabric stays fault-free (and on the allocation-free fast paths) until
// EnableFaults is called. After that every SendNeighbor/SendRouted transfer
// carries an fxfer record: links are checked for liveness at send time, and
// the per-link epoch is re-checked at delivery time so a link failing under
// an in-flight message drops it instead of delivering it for free. A dropped
// transfer is handed to the OnDrop hook, whose Retry closure reissues the
// whole logical transfer from the source — partially-routed work is wasted
// on purpose; that waste is the modeled cost of the failure.
// ---------------------------------------------------------------------------

// EnableFaults switches the fabric onto the fault-aware send paths.
// Irreversible for the run; call before issuing traffic.
func (n *Network) EnableFaults() { n.faultsOn = true }

// FaultsEnabled reports whether the fault-aware paths are active.
func (n *Network) FaultsEnabled() bool { return n.faultsOn }

// Drops returns the number of transfer drops so far (a transfer dropped k
// times counts k).
func (n *Network) Drops() int64 { return n.drops }

// Reroutes returns how many transfers detoured around a dead link.
func (n *Network) Reroutes() int64 { return n.reroutes }

// LinkUp reports the liveness of the link leaving from along d/dir.
func (n *Network) LinkUp(from NodeID, d Dim, dir int) bool {
	return n.mustLink(from, d, dir).up
}

// SetLinkUp fails (up=false) or restores (up=true) a link. Requires
// EnableFaults: without the fault-aware send paths a dead link would still
// carry traffic silently. Downing a link bumps its epoch, dropping every
// message currently serializing on it at the moment it would have
// delivered; restoring fires OnRestore so parked retries can wake.
func (n *Network) SetLinkUp(from NodeID, d Dim, dir int, up bool) {
	if !n.faultsOn {
		panic("noc: SetLinkUp without EnableFaults")
	}
	l := n.mustLink(from, d, dir)
	if l.up == up {
		return
	}
	l.up = up
	if !up {
		l.epoch++
		return
	}
	if n.OnRestore != nil {
		n.OnRestore()
	}
}

// DegradeLink scales the link's effective bandwidth to factor x the healthy
// rate (factor 1 restores it). Per resource.Server semantics the new rate
// applies to requests issued after the change; transfers already
// serializing keep their old finish time. Degradation never drops traffic,
// so it does not require EnableFaults.
func (n *Network) DegradeLink(from NodeID, d Dim, dir int, factor float64) {
	if factor <= 0 {
		panic(fmt.Sprintf("noc: DegradeLink factor %g", factor))
	}
	l := n.mustLink(from, d, dir)
	l.factor = factor
	l.srv.SetRate(l.baseGBps * factor)
}

func (n *Network) mustLink(from NodeID, d Dim, dir int) *Link {
	l := n.links[n.linkIndex(from, d, dir)]
	if l == nil {
		panic(fmt.Sprintf("noc: no link from %d along %s dir %+d", from, d, dir))
	}
	return l
}

// Drop describes one lost transfer, as reported to OnDrop.
type Drop struct {
	// Attempts counts how many times this transfer has now been dropped.
	Attempts int
	// Bytes is the logical transfer size.
	Bytes int64
	// Down reports whether the link that killed the transfer is still down.
	// False means the failure was transient (the link already came back up
	// underneath an in-flight message): a plain timed retry will succeed,
	// and the handler must NOT park such a transfer waiting for a restore
	// that will never come.
	Down bool
	// Retry reissues the whole logical transfer from its source,
	// re-evaluating link state (and detours) at that time.
	Retry func()
}

// fxfer is the retry identity of one logical fault-aware transfer. It is
// allocated once at first issue and survives drops: attempts accumulate
// across reissues so backoff policies can escalate.
type fxfer struct {
	net      *Network
	bytes    int64
	deliver  func()
	retry    func()
	attempts int
}

// dropped loses the transfer on link l and reports it to OnDrop.
func (n *Network) dropped(fx *fxfer, l *Link) {
	fx.attempts++
	n.drops++
	if n.OnDrop == nil {
		panic("noc: transfer dropped with faults enabled but no OnDrop handler")
	}
	n.OnDrop(Drop{Attempts: fx.attempts, Bytes: fx.bytes, Down: !l.up, Retry: fx.retry})
}

// delivered completes the transfer, reporting recovery if it ever dropped.
func (n *Network) delivered(fx *fxfer) {
	if fx.attempts > 0 && n.OnRecover != nil {
		n.OnRecover(fx.attempts)
	}
	fx.deliver()
}

// sendOnLinkF serializes the transfer on l, snapshotting the link epoch; if
// the link went down while the message was in flight the delivery-time
// epoch check drops it instead of running done.
func (n *Network) sendOnLinkF(l *Link, fx *fxfer, done func()) {
	epoch := l.epoch
	l.srv.RequestAfter(fx.bytes, l.lat, func() {
		if l.epoch != epoch {
			n.dropped(fx, l)
			return
		}
		done()
	})
}

// sendNeighborF is the fault-aware SendNeighbor. fx is nil on first issue
// and carried through retries.
func (n *Network) sendNeighborF(src NodeID, d Dim, dir int, bytes int64, deliver func(), fx *fxfer) {
	if fx == nil {
		fx = &fxfer{net: n, bytes: bytes, deliver: deliver}
		fx.retry = func() { n.sendNeighborF(src, d, dir, bytes, deliver, fx) }
	}
	t := n.cfg.Topo
	if t.HasLink(src, d, dir) {
		l := n.links[n.linkIndex(src, d, dir)]
		if l.up {
			n.sendOnLinkF(l, fx, func() { n.delivered(fx) })
			return
		}
		// Dead direct link: detour around it if the router finds a fully
		// healthy alternative, else drop and let the recovery policy retry.
		if path := n.detour(src, d, dir); path != nil {
			n.reroutes++
			n.routeF(src, path, fx)
			return
		}
		n.dropped(fx, l)
		return
	}
	if t.Size(d) == 1 || t.Wrap(d) {
		panic(fmt.Sprintf("noc: no link from %d along %s dir %+d", src, d, dir))
	}
	// Mesh boundary closure: same reverse line walk as the fault-free
	// path, hop liveness checked per hop by routeF.
	steps := t.Size(d) - 1
	path := make([]NodeID, steps)
	cur := src
	for i := 0; i < steps; i++ {
		cur = t.Neighbor(cur, d, -dir)
		path[i] = cur
	}
	n.routeF(src, path, fx)
}

// sendRoutedF is the fault-aware SendRouted. XYZ paths are not detoured:
// a transfer crossing a dead link drops and retries until the
// dimension-order path heals (or the retry policy parks it).
func (n *Network) sendRoutedF(src, dst NodeID, bytes int64, deliver func(), fx *fxfer) {
	if fx == nil {
		fx = &fxfer{net: n, bytes: bytes, deliver: deliver}
		fx.retry = func() { n.sendRoutedF(src, dst, bytes, deliver, fx) }
	}
	path := n.cfg.Topo.RouteXYZ(src, dst)
	if len(path) == 0 {
		n.eng.After(0, func() { n.delivered(fx) })
		return
	}
	n.routeF(src, path, fx)
}

// routeF walks the transfer hop by hop along path, checking link liveness
// at each send and the link epoch at each delivery, paying the Forward
// hook at intermediate endpoints. Any hop failure drops the whole
// transfer; the retry restarts from the source.
func (n *Network) routeF(src NodeID, path []NodeID, fx *fxfer) {
	cur := src
	i := 0
	var step func()
	step = func() {
		l := n.linkTo(cur, path[i])
		if !l.up {
			n.dropped(fx, l)
			return
		}
		cur = path[i]
		n.sendOnLinkF(l, fx, func() {
			if i == len(path)-1 {
				n.delivered(fx)
				return
			}
			advance := func() { i++; step() }
			if n.Forward != nil {
				n.Forward(cur, fx.bytes, des.Call, advance)
				return
			}
			advance()
		})
	}
	step()
}

// detour plans a neighbor path around the dead (src, d, dir) link:
//
//  1. On a wraparound dimension, the reverse ring walk — size-1 hops the
//     other way around the ring — if every hop is up.
//  2. Otherwise an orthogonal dogleg: sidestep along a healthy orthogonal
//     dimension, cross d there on the parallel link, and step back.
//
// Returns nil when no fully healthy alternative exists (the caller drops).
func (n *Network) detour(src NodeID, d Dim, dir int) []NodeID {
	t := n.cfg.Topo
	dst := t.Neighbor(src, d, dir)
	if t.Wrap(d) && t.Size(d) >= 2 {
		path := make([]NodeID, 0, t.Size(d)-1)
		cur, ok := src, true
		for i := 0; i < t.Size(d)-1; i++ {
			if !t.HasLink(cur, d, -dir) || !n.links[n.linkIndex(cur, d, -dir)].up {
				ok = false
				break
			}
			cur = t.Neighbor(cur, d, -dir)
			path = append(path, cur)
		}
		if ok {
			return path
		}
	}
	for e := Dim(0); int(e) < t.NumDims(); e++ {
		if e == d || t.Size(e) == 1 {
			continue
		}
		for _, ed := range []int{+1, -1} {
			if !t.HasLink(src, e, ed) {
				continue
			}
			a := t.Neighbor(src, e, ed)
			if !t.HasLink(a, d, dir) {
				continue
			}
			b := t.Neighbor(a, d, dir)
			if !t.HasLink(b, e, -ed) || t.Neighbor(b, e, -ed) != dst {
				continue
			}
			if n.links[n.linkIndex(src, e, ed)].up &&
				n.links[n.linkIndex(a, d, dir)].up &&
				n.links[n.linkIndex(b, e, -ed)].up {
				return []NodeID{a, b, dst}
			}
		}
	}
	return nil
}

// linkTo finds the physical link from a to its neighbor b.
func (n *Network) linkTo(a, b NodeID) *Link {
	t := n.cfg.Topo
	for d := Dim(0); int(d) < t.NumDims(); d++ {
		if t.Size(d) == 1 {
			continue
		}
		for _, dir := range []int{+1, -1} {
			if t.HasLink(a, d, dir) && t.Neighbor(a, d, dir) == b {
				return n.links[n.linkIndex(a, d, dir)]
			}
		}
	}
	panic(fmt.Sprintf("noc: nodes %d and %d are not neighbors", a, b))
}
