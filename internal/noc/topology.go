// Package noc models the Accelerator Fabric (AF) of a training platform:
// an N-dimensional torus/mesh of NPUs built from per-dimension
// bidirectional rings or lines (the paper's Table V 3D LxVxH torus is the
// 3-dimension all-wraparound special case), and an NVSwitch-like
// single-hop switch fabric used by the Section III microbenchmark
// platform.
//
// Links are modeled at message granularity: a transfer of B bytes holds a
// link for B/(BW·efficiency) and is delivered after the link latency.
// Multi-hop transfers (direct all-to-all, and the logical-ring closure of
// non-wraparound mesh dimensions) are store-and-forward at every
// intermediate endpoint, with an endpoint-supplied forwarding cost hook.
package noc

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// NodeID identifies an NPU endpoint in the fabric.
type NodeID int32

// Dim indexes a dimension of a Topology, in routing order (dimension 0 is
// resolved first by dimension-order routing and carries the intra-package
// link class by default).
type Dim uint8

// Legacy names for the three dimensions of the paper's LxVxH torus
// (local = intra-package ring, vertical and horizontal = inter-package
// rings). They are plain indices; general topologies use Dim values
// directly.
const (
	DimLocal Dim = iota
	DimVertical
	DimHorizontal
)

// String names the dimension. The first three keep the paper's LxVxH
// names (they appear in link labels and traces); higher dimensions are
// numbered.
func (d Dim) String() string {
	switch d {
	case DimLocal:
		return "local"
	case DimVertical:
		return "vertical"
	case DimHorizontal:
		return "horizontal"
	}
	return fmt.Sprintf("dim(%d)", uint8(d))
}

// MaxDims bounds the dimension count of a topology, and MaxNodes its
// total NPU count. Both are simulation-sanity limits (a fabric larger
// than this is certainly a typo or fuzz input, and the DES could not
// usefully simulate it anyway).
const (
	MaxDims  = 8
	MaxNodes = 1 << 20
)

// DimSpec describes one dimension of the fabric.
type DimSpec struct {
	// Size is the number of NPUs along the dimension (>= 1).
	Size int `json:"size"`
	// Wrap selects a ring (true: wraparound links close the dimension)
	// or a line/mesh (false: no boundary link; ring collectives close
	// the logical ring by routing back across the whole line).
	Wrap bool `json:"wrap"`
	// GBps, when > 0, overrides the raw per-link bandwidth of the
	// dimension's link class (dimension 0 defaults to the intra-package
	// class, higher dimensions to the inter-package class).
	GBps float64 `json:"gbps,omitempty"`
	// LatCycles, when > 0, overrides the link latency in cycles.
	LatCycles int `json:"lat_cycles,omitempty"`
}

// Topology is the shape of the accelerator fabric: an ordered list of
// dimensions. Node IDs are row-major with dimension 0 fastest, so the 3D
// LxVxH torus keeps its historical ID layout (id = l + L*(v + V*h)).
type Topology struct {
	Dims []DimSpec `json:"dims"`
}

// Torus3 returns the paper's LxVxH 3D torus: every dimension wraps and
// uses the link-class defaults.
func Torus3(l, v, h int) Topology {
	return Topology{Dims: []DimSpec{{Size: l, Wrap: true}, {Size: v, Wrap: true}, {Size: h, Wrap: true}}}
}

// Ring1 returns a single all-wraparound dimension of n NPUs (the flat
// ring used by the Section III switch-class platform).
func Ring1(n int) Topology {
	return Topology{Dims: []DimSpec{{Size: n, Wrap: true}}}
}

// Grid returns an all-wraparound topology with the given sizes, one
// dimension per argument.
func Grid(sizes ...int) Topology {
	t := Topology{Dims: make([]DimSpec, len(sizes))}
	for i, s := range sizes {
		t.Dims[i] = DimSpec{Size: s, Wrap: true}
	}
	return t
}

// NumDims returns the number of dimensions.
func (t Topology) NumDims() int { return len(t.Dims) }

// N returns the number of NPUs.
func (t Topology) N() int {
	n := 1
	for _, d := range t.Dims {
		n *= d.Size
	}
	return n
}

// Size returns the NPU count along dimension d (0 when out of range, so
// loops over foreign plans degrade gracefully).
func (t Topology) Size(d Dim) int {
	if int(d) >= len(t.Dims) {
		return 0
	}
	return t.Dims[d].Size
}

// Wrap reports whether dimension d has wraparound links.
func (t Topology) Wrap(d Dim) bool {
	if int(d) >= len(t.Dims) {
		return false
	}
	return t.Dims[d].Wrap
}

// stride returns the ID stride of dimension d (product of lower sizes).
func (t Topology) stride(d Dim) int {
	s := 1
	for i := Dim(0); i < d; i++ {
		s *= t.Dims[i].Size
	}
	return s
}

// Coord returns id's coordinate along dimension d.
func (t Topology) Coord(id NodeID, d Dim) int {
	return (int(id) / t.stride(d)) % t.Dims[d].Size
}

// Coords returns id's full coordinate vector.
func (t Topology) Coords(id NodeID) []int {
	c := make([]int, len(t.Dims))
	n := int(id)
	for i, ds := range t.Dims {
		c[i] = n % ds.Size
		n /= ds.Size
	}
	return c
}

// ID returns the node at the given coordinates (one per dimension).
func (t Topology) ID(coords ...int) NodeID {
	if len(coords) != len(t.Dims) {
		panic(fmt.Sprintf("noc: %d coordinates for %d dimensions", len(coords), len(t.Dims)))
	}
	id := 0
	for i := len(t.Dims) - 1; i >= 0; i-- {
		id = id*t.Dims[i].Size + coords[i]
	}
	return NodeID(id)
}

// Neighbor returns the logical ring neighbor of id along d in direction
// dir (+1 or -1), with wraparound. On a non-wrap (mesh) dimension the
// logical ring still closes — the physical path for the boundary hop is
// the network's concern (see Network.SendNeighbor).
func (t Topology) Neighbor(id NodeID, d Dim, dir int) NodeID {
	n := t.Dims[d].Size
	c := t.Coord(id, d)
	nc := ((c+dir)%n + n) % n
	return id + NodeID((nc-c)*t.stride(d))
}

// HasLink reports whether the physical link leaving id along d in
// direction dir exists: always on a wrap dimension of size > 1, and only
// away from the boundary on a mesh dimension.
func (t Topology) HasLink(id NodeID, d Dim, dir int) bool {
	ds := t.Dims[d]
	if ds.Size == 1 {
		return false
	}
	if ds.Wrap {
		return true
	}
	c := t.Coord(id, d)
	if dir > 0 {
		return c < ds.Size-1
	}
	return c > 0
}

// RingRank returns id's position within its logical ring along d (= its
// coordinate).
func (t Topology) RingRank(id NodeID, d Dim) int { return t.Coord(id, d) }

// OffsetID returns the node at self's coordinates shifted by the
// row-major offset off (dimension 0 fastest), each dimension taken
// modulo its size. Offsets 1..N-1 enumerate every other node in the
// rotation-equivariant order the direct all-to-all relies on.
func (t Topology) OffsetID(self NodeID, off int) NodeID {
	id := 0
	mul := 1
	for _, ds := range t.Dims {
		d := off % ds.Size
		off /= ds.Size
		c := (int(self)/mul)%ds.Size + d
		if c >= ds.Size {
			c -= ds.Size
		}
		id += c * mul
		mul *= ds.Size
	}
	return NodeID(id)
}

// RouteXYZ returns the hop-by-hop path from src to dst using
// dimension-order routing (dimension 0 first — the generalization of the
// 3D torus's local/vertical/horizontal XYZ order). Wraparound dimensions
// take the shorter ring direction, ties going to +1 (which keeps routing
// invariant under torus rotations: every node then sees an identical
// traffic pattern, a symmetry the chunk scheduler relies on); mesh
// dimensions go straight along the line. The returned path excludes src
// and includes dst; it is empty when src == dst.
func (t Topology) RouteXYZ(src, dst NodeID) []NodeID {
	return t.AppendRouteXYZ(nil, src, dst)
}

// AppendRouteXYZ appends the RouteXYZ path from src to dst to path and
// returns the extended slice, so a caller can reuse one buffer.
func (t Topology) AppendRouteXYZ(path []NodeID, src, dst NodeID) []NodeID {
	cur := src
	for di := range t.Dims {
		d := Dim(di)
		ds := t.Dims[di]
		if ds.Size == 1 {
			continue
		}
		from, to := t.Coord(cur, d), t.Coord(dst, d)
		n := ds.Size
		var dir, steps int
		if ds.Wrap {
			delta := ((to-from)%n + n) % n // steps in +1 direction
			dir, steps = 1, delta
			if delta > n-delta {
				dir, steps = -1, n-delta
			}
		} else {
			dir, steps = 1, to-from
			if steps < 0 {
				dir, steps = -1, -steps
			}
		}
		for i := 0; i < steps; i++ {
			cur = t.Neighbor(cur, d, dir)
			path = append(path, cur)
		}
	}
	return path
}

// Diameter is the most hops a RouteXYZ path (or a mesh boundary hop)
// takes: half of each ring, the whole of each line.
func (t Topology) Diameter() int {
	hops := 0
	for _, ds := range t.Dims {
		if ds.Wrap {
			hops += ds.Size / 2
		} else {
			hops += ds.Size - 1
		}
	}
	return hops
}

// NodeSymmetric reports whether every node sees an identical fabric: all
// dimensions are rings (or trivially small lines — a size-2 line's two
// endpoints are mirror images, and a size-1 dimension has no links).
// On a node-symmetric fabric every NPU runs the same timeline for an
// SPMD program, a property the LIFO chunk scheduler relies on; mesh
// dimensions of size >= 3 break it (boundary nodes pay different wrap
// costs than interior ones), so asymmetric fabrics must schedule chunk
// admission in an order that does not depend on local timing (see
// collectives.NewRuntime).
func (t Topology) NodeSymmetric() bool {
	for _, d := range t.Dims {
		if !d.Wrap && d.Size > 2 {
			return false
		}
	}
	return true
}

// Equal reports whether two topologies have identical dimension lists
// (sizes, wrap flags and link overrides).
func (t Topology) Equal(o Topology) bool {
	if len(t.Dims) != len(o.Dims) {
		return false
	}
	for i := range t.Dims {
		if t.Dims[i] != o.Dims[i] {
			return false
		}
	}
	return true
}

// String formats the topology as its sizes joined by "x", with an "m"
// suffix on mesh (non-wrap) dimensions: "4x4x4" is the paper's 64-NPU
// torus, "8x8m" an 8-ring by 8-line. Link overrides do not appear (the
// string is a shape label, and it round-trips through ParseTopology for
// override-free topologies).
func (t Topology) String() string {
	if len(t.Dims) == 0 {
		return "empty"
	}
	var sb strings.Builder
	for i, d := range t.Dims {
		if i > 0 {
			sb.WriteByte('x')
		}
		sb.WriteString(strconv.Itoa(d.Size))
		if !d.Wrap {
			sb.WriteByte('m')
		}
	}
	return sb.String()
}

// Validate reports malformed topologies: no dimensions, too many
// dimensions, non-positive sizes, a node-count overflow, or negative
// link overrides.
func (t Topology) Validate() error {
	if len(t.Dims) == 0 {
		return fmt.Errorf("noc: topology has no dimensions")
	}
	if len(t.Dims) > MaxDims {
		return fmt.Errorf("noc: topology has %d dimensions (max %d)", len(t.Dims), MaxDims)
	}
	n := 1
	for i, d := range t.Dims {
		if d.Size < 1 {
			return fmt.Errorf("noc: invalid topology %s: all dims must be >= 1", t)
		}
		if d.GBps < 0 {
			return fmt.Errorf("noc: dim %d has negative bandwidth override", i)
		}
		if d.LatCycles < 0 {
			return fmt.Errorf("noc: dim %d has negative latency override", i)
		}
		if d.Size > MaxNodes || n > MaxNodes/d.Size {
			return fmt.Errorf("noc: topology %s exceeds %d NPUs", t, MaxNodes)
		}
		n *= d.Size
	}
	return nil
}

// ParseTopology parses a shape string: dimension sizes joined by "x",
// each optionally suffixed with "m" for a mesh (non-wraparound)
// dimension. "4x4x4" is the paper's 64-NPU 3D torus, "8x8m" a 2D
// ring-by-line, "16" a flat 16-ring. Parsing is strict (no empty or
// malformed fields) and the result is validated.
func ParseTopology(s string) (Topology, error) {
	var t Topology
	fields := strings.Split(strings.ToLower(s), "x")
	for _, f := range fields {
		ds := DimSpec{Wrap: true}
		if strings.HasSuffix(f, "m") {
			ds.Wrap = false
			f = strings.TrimSuffix(f, "m")
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			return Topology{}, fmt.Errorf("noc: bad topology %q (want sizes joined by \"x\", e.g. \"4x4x4\" or \"8x8m\"): %w", s, err)
		}
		ds.Size = v
		t.Dims = append(t.Dims, ds)
	}
	return t, t.Validate()
}

// topologyJSON mirrors Topology for object-form decoding without
// recursing into UnmarshalJSON.
type topologyJSON struct {
	Dims []DimSpec `json:"dims"`
}

// UnmarshalJSON decodes either the compact string form ("4x4m") or the
// full object form ({"dims":[{"size":4,"wrap":true,"gbps":200},...]}).
// The decoded topology is validated.
func (t *Topology) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		parsed, err := ParseTopology(s)
		if err != nil {
			return err
		}
		*t = parsed
		return nil
	}
	var obj topologyJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&obj); err != nil {
		return err
	}
	t.Dims = obj.Dims
	return t.Validate()
}
