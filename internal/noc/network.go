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

	// Fault state (only consulted once Network.EnableFaults is on).
	// baseGBps remembers the healthy rate so a degrade factor composes
	// multiplicatively instead of compounding.
	up       bool
	factor   float64
	baseGBps float64
	// epoch increments every time the link goes down. A transfer snapshots
	// the epoch at serialization start and re-checks it at delivery: a
	// mismatch means the link failed underneath the in-flight message,
	// which is then dropped.
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

	// extraWire/extraInjected fold traffic that never crossed these links
	// into the fabric totals: the analytic engine mode's exact byte
	// accounting (collectives.AnalyzeOn) and a hybrid shadow's injections
	// still have to show up in TotalWireBytes/InjectedBytes.
	extraWire     int64
	extraInjected int64

	// Fault machinery (see fault.go). faultsOn routes every send through
	// the transfer record, which checks link liveness; pol governs the
	// reissue of dropped transfers, and parked holds those waiting for a
	// link restore.
	faultsOn bool
	pol      RecoveryPolicy
	rec      RecoveryStats
	reroutes int64
	parked   []*routedXfer
	// xfers holds delivered routed-transfer records for reuse; hops is
	// appendRoute's node-path scratch.
	xfers []*routedXfer
	hops  []NodeID
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
// hop on a fault-free fabric is one scheduled event; every other send
// rides a pooled transfer record, so a warm fabric allocates nothing.
func (n *Network) SendNeighborCtx(src NodeID, d Dim, dir int, bytes int64, fn func(any), arg any) {
	n.injected.Add(bytes)
	if !n.faultsOn && n.cfg.Topo.HasLink(src, d, dir) {
		// One scheduled event covers serialization (FIFO at the link's
		// effective rate) and the propagation latency after it.
		l := n.links[n.linkIndex(src, d, dir)]
		l.srv.RequestAfterCtx(bytes, l.lat, fn, arg)
		return
	}
	x := n.newXfer(src, bytes, fn, arg)
	x.d, x.dir = d, int8(dir)
	x.start()
}

// SendRouted transfers bytes from src to an arbitrary dst using XYZ
// dimension-order routing. The Forward hook is charged at every
// intermediate endpoint (store-and-forward); deliver runs at dst.
// src == dst delivers after zero network time.
func (n *Network) SendRouted(src, dst NodeID, bytes int64, deliver func()) {
	n.SendRoutedCtx(src, dst, bytes, des.Call, deliver)
}

// SendRoutedCtx is SendRouted with delivery in the engine's
// callback-with-context form: fn(arg) runs at dst. With a warm record
// pool it allocates nothing.
func (n *Network) SendRoutedCtx(src, dst NodeID, bytes int64, fn func(any), arg any) {
	n.injected.Add(bytes)
	if src == dst {
		n.eng.AfterCtx(0, fn, arg)
		return
	}
	x := n.newXfer(src, bytes, fn, arg)
	x.dst = dst
	x.start()
}

// routedXfer is the in-flight state of one transfer that is not a
// fault-free direct hop: an XYZ-routed transfer, a mesh boundary walk,
// or any send on a fault-enabled fabric. It drives itself hop by hop
// through the engine's callback-with-context scheduling. Records are
// recycled through the network (see newXfer), so a warm fabric sends
// without allocating. A dropped transfer keeps its record and re-plans
// from its source when it is reissued.
type routedXfer struct {
	net   *Network
	path  []int32 // link indices, first hop first; reused
	bytes int64
	// fn(arg) runs at the destination.
	fn  func(any)
	arg any
	// epoch is the current hop link's epoch when it began serializing
	// (faults on).
	epoch    uint64
	src, dst NodeID // dst is used when dir == 0 (a routed transfer)
	hop      int32  // index of the current hop in path
	attempts int32  // drops so far
	// d, dir name a neighbor send; dir == 0 marks an XYZ-routed one.
	d   Dim
	dir int8
}

// newXfer returns an idle transfer record from src, reusing a delivered
// one when there is one.
func (n *Network) newXfer(src NodeID, bytes int64, fn func(any), arg any) *routedXfer {
	var x *routedXfer
	if k := len(n.xfers); k > 0 {
		x = n.xfers[k-1]
		n.xfers = n.xfers[:k-1]
	} else {
		// Room for the longest route, so a reused path never grows.
		x = &routedXfer{net: n, path: make([]int32, 0, n.cfg.Topo.Diameter())}
	}
	x.src, x.bytes, x.fn, x.arg = src, bytes, fn, arg
	x.dst, x.attempts, x.d, x.dir = 0, 0, 0, 0
	return x
}

// start plans the transfer's path from its source — an XYZ route, a
// mesh boundary walk, or (faults on) the direct hop or a detour around
// it — and sends the first hop. A reissued transfer starts here again.
func (x *routedXfer) start() {
	n, t := x.net, x.net.cfg.Topo
	x.path, x.hop = x.path[:0], 0
	d, dir := x.d, int(x.dir)
	switch {
	case dir == 0:
		x.path = n.appendRoute(x.path, x.src, x.dst)
	case t.HasLink(x.src, d, dir):
		i := n.linkIndex(x.src, d, dir)
		if l := n.links[i]; !l.up {
			// Dead direct link: detour around it if the router finds a
			// fully healthy alternative, else drop.
			if x.path = n.appendDetour(x.path, x.src, d, dir); len(x.path) == 0 {
				x.drop(l)
				return
			}
			n.reroutes++
			break
		}
		x.path = append(x.path, int32(i))
	case t.Size(d) == 1 || t.Wrap(d):
		panic(fmt.Sprintf("noc: no link from %d along %s dir %+d", x.src, d, dir))
	default:
		// Mesh boundary hop: walk the line to the far end (size-1
		// physical hops in the opposite direction).
		cur := x.src
		for i := 1; i < t.Size(d); i++ {
			x.path = append(x.path, int32(n.linkIndex(cur, d, -dir)))
			cur = t.Neighbor(cur, d, -dir)
		}
	}
	x.send()
}

// routedServed is the static hop-completion callback (AtCtx form).
func routedServed(a any) { a.(*routedXfer).served() }

// send serializes the transfer on its current hop's link. With faults on
// a dead link drops the transfer, and a live one's epoch is snapshotted
// for the check at delivery.
func (x *routedXfer) send() {
	l := x.net.links[x.path[x.hop]]
	if x.net.faultsOn {
		if !l.up {
			x.drop(l)
			return
		}
		x.epoch = l.epoch
	}
	l.srv.RequestAfterCtx(x.bytes, l.lat, routedServed, x)
}

// served runs when the current hop's message has fully arrived: drop it
// if its link went down underneath it, deliver at the destination
// (recycling the record first, so the delivery can reuse it), or pay the
// store-and-forward cost and continue.
func (x *routedXfer) served() {
	n := x.net
	l := n.links[x.path[x.hop]]
	if n.faultsOn && l.epoch != x.epoch {
		x.drop(l)
		return
	}
	if int(x.hop) == len(x.path)-1 {
		if x.attempts > 0 {
			n.rec.Recovered++
			n.rec.LastRecoverAt = n.eng.Now()
		}
		fn, arg := x.fn, x.arg
		x.fn, x.arg = nil, nil
		n.xfers = append(n.xfers, x)
		fn(arg)
		return
	}
	if n.Forward != nil {
		n.Forward(l.To, x.bytes, routedAdvance, x)
		return
	}
	routedAdvance(x)
}

// routedAdvance moves the transfer to its next hop (the static
// continuation of the Forward hook).
func routedAdvance(a any) {
	x := a.(*routedXfer)
	x.hop++
	x.send()
}

// appendRoute appends the links of the XYZ route from src to dst to path.
func (n *Network) appendRoute(path []int32, src, dst NodeID) []int32 {
	n.hops = n.cfg.Topo.AppendRouteXYZ(n.hops[:0], src, dst)
	for _, b := range n.hops {
		path = append(path, n.linkTo(src, b))
		src = b
	}
	return path
}

// linkTo finds the index of the physical link from a to its neighbor b.
func (n *Network) linkTo(a, b NodeID) int32 {
	t := n.cfg.Topo
	for d := Dim(0); int(d) < t.NumDims(); d++ {
		if t.Size(d) == 1 {
			continue
		}
		for _, dir := range []int{+1, -1} {
			if t.HasLink(a, d, dir) && t.Neighbor(a, d, dir) == b {
				return int32(n.linkIndex(a, d, dir))
			}
		}
	}
	panic(fmt.Sprintf("noc: nodes %d and %d are not neighbors", a, b))
}
