// Package graph defines the workload execution-graph IR and its executor:
// a DAG whose nodes are compute kernels, collective operations and
// point-to-point transfers, with explicit dependency edges and per-node
// payload/FLOP metadata. Any training program the simulator can run is
// expressible as a graph — the fixed per-layer loop of the paper's
// Section V (lowered from a workload.Model by FromModel), pipeline- and
// hybrid-parallel microbatch schedules (synthesized by Pipeline), or
// hand-written / externally generated traces fed in as JSON (Parse).
// training.Start runs every training job through this executor; the
// lowered legacy workloads are pinned bit-identical to the pre-graph
// per-layer loop by internal/training's golden test.
package graph

import (
	"fmt"
	"sort"

	"acesim/internal/collectives"
	"acesim/internal/noc"
)

// OpKind discriminates the node types of the IR.
type OpKind uint8

// Op kinds.
const (
	// OpCompute is a kernel on the rank's compute stream (roofline cost
	// model), or — with Side set — a byte transfer on the rank's
	// spare-resource side memory stream.
	OpCompute OpKind = iota
	// OpCollective is one rank's participation in a collective operation.
	// The i-th collective issued by each participating rank on a stream
	// is matched to the same logical collective, so all participants must
	// issue the same sequence (synchronous SPMD within the group).
	OpCollective
	// OpSend is a point-to-point transfer to another rank, routed through
	// the fabric with endpoint costs at both ends. The op completes when
	// the payload has been delivered (and sunk) at the destination, so
	// ops depending on it naturally model the receive side.
	OpSend
	// OpMark is a zero-cost annotation: it records the simulated time it
	// executes at under its name (pass boundaries, trace labels).
	OpMark
)

// String names the kind as spelled in the JSON format.
func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpCollective:
		return "collective"
	case OpSend:
		return "send"
	case OpMark:
		return "mark"
	}
	return "unknown"
}

// Op is one node of the execution graph. Exactly the fields of its Kind
// apply; Validate rejects mixtures.
type Op struct {
	// ID is the op's unique identifier; Deps reference it.
	ID int
	// Name labels the op (kernel name, collective name, mark label).
	Name string
	// Rank is the NPU that executes the op (for OpSend: the sender).
	Rank int
	// Deps lists the ops that must complete before this op starts.
	Deps []int

	// The four one-byte fields sit together so an Op packs into 128
	// bytes (TestOpSize); lowering allocates one per op per rank.
	Kind OpKind
	// Side runs a compute op on the rank's side memory stream instead
	// of the main compute stream: duration is Bytes at SideStreamGBps,
	// the main stream is not occupied. MACs must be zero.
	Side bool
	// Coll is a collective op's kind.
	Coll collectives.Kind
	// Final marks the op whose completion defines the rank's finish time
	// (at most one per rank). Without one, a rank finishes when all its
	// ops have completed. The distinction matters for programs that issue
	// a collective they never wait on: the legacy training loop's
	// iteration time excludes such drains.
	Final bool

	// Compute fields (roofline: max of MACs at peak and Bytes at the
	// compute memory share, plus launch overhead).
	MACs    float64
	Bytes   int64 // compute: HBM bytes; collective: payload; send: message
	MaxGBps float64

	// Collective fields.
	// Group lists the participating ranks; empty means all ranks.
	// All-reduce and all-to-all over all ranks execute on the runtime's
	// topology-aware plans (the paper's hierarchical/direct algorithms);
	// proper subgroups, reduce-scatter and all-gather execute as logical
	// rings of routed point-to-point transfers (see groupColl).
	Group []int
	// PrioBias lowers the collective's LIFO scheduling priority by the
	// given number of issue slots (collectives.Spec.PrioBias). It only
	// applies to collectives the runtime's chunk scheduler executes —
	// full-fabric all-reduce and all-to-all; the group/ring path has no
	// priority concept, so Validate rejects a bias there rather than
	// silently ignoring it.
	PrioBias int64

	// Send field: destination rank.
	Dst int
}

// Graph is a complete executable workload DAG.
type Graph struct {
	Name string
	// Ranks is the number of NPUs the graph targets; it must match the
	// fabric the executor runs on.
	Ranks int
	// Topo optionally records the fabric topology the trace was generated
	// for. When set, its node count must equal Ranks; executors only
	// require the rank count to match, so a trace recorded on one shape
	// may be replayed on any fabric of the same size.
	Topo *noc.Topology
	Ops  []Op
}

// canonGroup reports whether the op's group is effectively "all ranks"
// (empty or covering every rank).
func (g *Graph) fullGroup(op *Op) bool {
	return len(op.Group) == 0 || len(op.Group) == g.Ranks
}

// Validate checks structural well-formedness: unique IDs, ranks and deps
// in range, per-kind field consistency, and acyclicity (the schedule
// must cover every op).
func (g *Graph) Validate() error {
	_, err := g.plan()
	return err
}

// plan is a graph's resolved dependency structure: the one pass that
// Validate, Schedule and Executor.Start share. Ops are named by their
// index in g.Ops; op i's dependents, in ascending index order, are
// users[userOff[i]:userOff[i+1]].
type plan struct {
	order   []int // schedule position -> op index
	userOff []int
	users   []int
}

// plan validates the graph and resolves it: the checks run in the order
// Validate documents, and the schedule is Kahn's algorithm with the
// smallest-ID ready op first.
func (g *Graph) plan() (*plan, error) {
	if g.Ranks <= 0 {
		return nil, fmt.Errorf("graph: non-positive ranks %d", g.Ranks)
	}
	const maxRanks = 1 << 20
	if g.Ranks > maxRanks {
		return nil, fmt.Errorf("graph: %d ranks exceeds the %d limit", g.Ranks, maxRanks)
	}
	if len(g.Ops) == 0 {
		return nil, fmt.Errorf("graph: no ops")
	}
	if g.Topo != nil {
		if err := g.Topo.Validate(); err != nil {
			return nil, fmt.Errorf("graph: topology: %w", err)
		}
		if g.Topo.N() != g.Ranks {
			return nil, fmt.Errorf("graph: topology %s has %d NPUs, ranks is %d", g.Topo, g.Topo.N(), g.Ranks)
		}
	}
	n := len(g.Ops)
	ids := make(map[int]int, n) // op ID -> index in g.Ops
	// finals and inGroup (for validateOp) are keyed by rank but hold only
	// the ranks the ops name, so declaring many ranks costs nothing.
	finals := make(map[int]bool)
	inGroup := make(map[int]int)
	for i := range g.Ops {
		op := &g.Ops[i]
		// A taken ID leaves the map's size at i.
		if ids[op.ID] = i; len(ids) == i {
			return nil, fmt.Errorf("graph: duplicate op id %d", op.ID)
		}
		if op.Rank < 0 || op.Rank >= g.Ranks {
			return nil, fmt.Errorf("graph: op %d rank %d out of range [0,%d)", op.ID, op.Rank, g.Ranks)
		}
		if op.Final {
			if finals[op.Rank] {
				return nil, fmt.Errorf("graph: rank %d has more than one final op", op.Rank)
			}
			finals[op.Rank] = true
		}
		if err := g.validateOp(op, inGroup, i+1); err != nil {
			return nil, err
		}
	}
	// Check the deps, resolve each to its op index (dep, in the order
	// the ops list them) and count each op's dependents. stamp[j] == i+1
	// once op i has listed op j, which catches a dep listed twice without
	// a set per op.
	p := &plan{userOff: make([]int, n+1)}
	stamp := make([]int, n)
	ndeps := 0
	for i := range g.Ops {
		ndeps += len(g.Ops[i].Deps)
	}
	dep := make([]int, 0, ndeps)
	for i := range g.Ops {
		op := &g.Ops[i]
		for _, d := range op.Deps {
			j, ok := ids[d]
			if !ok {
				return nil, fmt.Errorf("graph: op %d depends on undefined op %d", op.ID, d)
			}
			if j == i {
				return nil, fmt.Errorf("graph: op %d depends on itself", op.ID)
			}
			if stamp[j] == i+1 {
				return nil, fmt.Errorf("graph: op %d lists dep %d twice", op.ID, d)
			}
			stamp[j] = i + 1
			dep = append(dep, j)
			p.userOff[j+1]++
		}
	}
	for j := 0; j < n; j++ {
		p.userOff[j+1] += p.userOff[j]
	}
	// Fill the dependents table in ascending op order; stamp becomes each
	// op's fill cursor.
	p.users = make([]int, ndeps)
	copy(stamp, p.userOff[:n])
	k := 0
	for i := range g.Ops {
		for _, j := range dep[k : k+len(g.Ops[i].Deps)] {
			p.users[stamp[j]] = i
			stamp[j]++
		}
		k += len(g.Ops[i].Deps)
	}
	// Kahn's algorithm; stamp becomes each op's unmet dep count.
	indeg := stamp
	var ready idHeap
	for i := range g.Ops {
		indeg[i] = len(g.Ops[i].Deps)
		if indeg[i] == 0 {
			ready.push(g.Ops[i].ID)
		}
	}
	p.order = make([]int, 0, n)
	for ready.len() > 0 {
		i := ids[ready.pop()]
		p.order = append(p.order, i)
		for _, j := range p.users[p.userOff[i]:p.userOff[i+1]] {
			indeg[j]--
			if indeg[j] == 0 {
				ready.push(g.Ops[j].ID)
			}
		}
	}
	if len(p.order) != n {
		return nil, fmt.Errorf("graph: dependency cycle (%d of %d ops schedulable)", len(p.order), n)
	}
	return p, nil
}

// validateOp checks the per-kind field constraints of one op. inGroup,
// keyed by rank, finds a group listing a rank twice: the op's group
// members are stamped with the op's unique nonzero stamp.
func (g *Graph) validateOp(op *Op, inGroup map[int]int, stamp int) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("graph: op %d (%s): %s", op.ID, op.Kind, fmt.Sprintf(format, args...))
	}
	clean := func(checks ...bool) bool {
		for _, violated := range checks {
			if violated {
				return false
			}
		}
		return true
	}
	switch op.Kind {
	case OpCompute:
		if op.MACs < 0 || op.Bytes < 0 || op.MaxGBps < 0 {
			return fail("negative cost (macs=%g bytes=%d max_gbps=%g)", op.MACs, op.Bytes, op.MaxGBps)
		}
		if op.Side && (op.MACs != 0 || op.Bytes <= 0) {
			return fail("side ops are byte transfers (macs=%g bytes=%d)", op.MACs, op.Bytes)
		}
		if !clean(len(op.Group) > 0, op.PrioBias != 0, op.Dst != 0) {
			return fail("collective/send fields set")
		}
	case OpCollective:
		if op.Bytes <= 0 {
			return fail("non-positive payload %d", op.Bytes)
		}
		switch op.Coll {
		case collectives.AllReduce, collectives.AllToAll, collectives.ReduceScatter, collectives.AllGather:
		default:
			return fail("unknown collective kind %d", op.Coll)
		}
		if !clean(op.MACs != 0, op.MaxGBps != 0, op.Side, op.Dst != 0) {
			return fail("compute/send fields set")
		}
		if len(op.Group) > 0 {
			if len(op.Group) < 2 {
				return fail("group of %d ranks (want >= 2 or empty for all)", len(op.Group))
			}
			self := false
			for _, r := range op.Group {
				if r < 0 || r >= g.Ranks {
					return fail("group rank %d out of range [0,%d)", r, g.Ranks)
				}
				if inGroup[r] == stamp {
					return fail("group lists rank %d twice", r)
				}
				inGroup[r] = stamp
				if r == op.Rank {
					self = true
				}
			}
			if !self {
				return fail("group %v does not include the issuing rank %d", op.Group, op.Rank)
			}
		}
		if g.fullGroup(op) && g.Ranks < 2 {
			return fail("collective over a single rank")
		}
		if op.PrioBias != 0 &&
			(!g.fullGroup(op) || (op.Coll != collectives.AllReduce && op.Coll != collectives.AllToAll)) {
			return fail("prio_bias only applies to full-fabric all-reduce/all-to-all (the group/ring path has no priority)")
		}
	case OpSend:
		if op.Bytes <= 0 {
			return fail("non-positive payload %d", op.Bytes)
		}
		if op.Dst < 0 || op.Dst >= g.Ranks {
			return fail("dst %d out of range [0,%d)", op.Dst, g.Ranks)
		}
		if op.Dst == op.Rank {
			return fail("send to self")
		}
		if !clean(op.MACs != 0, op.MaxGBps != 0, op.Side, len(op.Group) > 0, op.PrioBias != 0) {
			return fail("compute/collective fields set")
		}
	case OpMark:
		if !clean(op.MACs != 0, op.Bytes != 0, op.MaxGBps != 0, op.Side,
			len(op.Group) > 0, op.PrioBias != 0, op.Dst != 0) {
			return fail("payload fields set")
		}
	default:
		return fmt.Errorf("graph: op %d has unknown kind %d", op.ID, op.Kind)
	}
	return nil
}

// Schedule returns a stable topological order over the ops: Kahn's
// algorithm with the smallest-ID ready op first. The order is a pure
// function of the graph, independent of input op order; the executor
// breaks same-instant ties with it, which is what makes graph replay
// deterministic. It validates the graph first and returns Validate's
// error on a malformed one (a dependency cycle among them).
func (g *Graph) Schedule() ([]int, error) {
	p, err := g.plan()
	if err != nil {
		return nil, err
	}
	order := make([]int, len(p.order))
	for pos, i := range p.order {
		order[pos] = g.Ops[i].ID
	}
	return order, nil
}

// idHeap is a min-heap of ints: op IDs in the plan's ready set, schedule
// positions in the executor's same-instant worklist.
type idHeap struct{ ids []int }

func (h *idHeap) len() int { return len(h.ids) }

func (h *idHeap) push(id int) {
	h.ids = append(h.ids, id)
	i := len(h.ids) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.ids[p] <= h.ids[i] {
			break
		}
		h.ids[p], h.ids[i] = h.ids[i], h.ids[p]
		i = p
	}
}

func (h *idHeap) pop() int {
	top := h.ids[0]
	n := len(h.ids) - 1
	h.ids[0] = h.ids[n]
	h.ids = h.ids[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.ids[l] < h.ids[min] {
			min = l
		}
		if r < n && h.ids[r] < h.ids[min] {
			min = r
		}
		if min == i {
			break
		}
		h.ids[i], h.ids[min] = h.ids[min], h.ids[i]
		i = min
	}
	return top
}

// Stats summarizes a graph for listings and reports.
type Stats struct {
	Ops         int
	Computes    int
	Collectives int
	Sends       int
	Marks       int
	// CollBytes / SendBytes sum the per-op payloads.
	CollBytes int64
	SendBytes int64
}

// Stats counts the graph's ops by kind.
func (g *Graph) Stats() Stats {
	var s Stats
	s.Ops = len(g.Ops)
	for i := range g.Ops {
		op := &g.Ops[i]
		switch op.Kind {
		case OpCompute:
			s.Computes++
		case OpCollective:
			s.Collectives++
			s.CollBytes += op.Bytes
		case OpSend:
			s.Sends++
			s.SendBytes += op.Bytes
		case OpMark:
			s.Marks++
		}
	}
	return s
}

// groupKey canonicalizes a collective op's group for matching: the sorted
// member list rendered as a string ("" for all ranks).
func (g *Graph) groupKey(op *Op) string {
	if g.fullGroup(op) {
		return ""
	}
	members := append([]int(nil), op.Group...)
	sort.Ints(members)
	return fmt.Sprint(members)
}

// groupMembers returns the op's participating ranks in canonical (sorted)
// order; nil means all ranks.
func groupMembers(op *Op) []int {
	members := append([]int(nil), op.Group...)
	sort.Ints(members)
	return members
}
