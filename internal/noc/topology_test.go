package noc

import (
	"encoding/json"
	"testing"
	"testing/quick"
)

func TestTopologyCoordsRoundTrip(t *testing.T) {
	for _, tor := range []Topology{
		Torus3(4, 8, 4),
		Grid(16),
		Grid(3, 5),
		Grid(2, 3, 4, 5),
		{Dims: []DimSpec{{Size: 4, Wrap: true}, {Size: 3}}}, // mixed wrap/mesh
	} {
		for id := NodeID(0); int(id) < tor.N(); id++ {
			c := tor.Coords(id)
			if got := tor.ID(c...); got != id {
				t.Fatalf("%s: round trip failed: %d -> %v -> %d", tor, id, c, got)
			}
			for d := range c {
				if c[d] < 0 || c[d] >= tor.Dims[d].Size {
					t.Fatalf("%s: coord out of range: %v", tor, c)
				}
				if got := tor.Coord(id, Dim(d)); got != c[d] {
					t.Fatalf("%s: Coord(%d,%d) = %d, want %d", tor, id, d, got, c[d])
				}
			}
		}
	}
}

func TestTorus3LegacyLayout(t *testing.T) {
	// The 3D constructor keeps the historical id = l + L*(v + V*h) layout.
	tor := Torus3(4, 8, 4)
	if tor.ID(2, 5, 3) != NodeID(2+4*(5+8*3)) {
		t.Fatal("3D ID layout changed")
	}
	if tor.N() != 128 || tor.NumDims() != 3 {
		t.Fatal("3D shape wrong")
	}
}

func TestTopologyValidate(t *testing.T) {
	if err := Torus3(4, 2, 2).Validate(); err != nil {
		t.Fatalf("valid torus rejected: %v", err)
	}
	bad := []Topology{
		Torus3(0, 2, 2),
		{},
		Grid(1, 1, 1, 1, 1, 1, 1, 1, 1), // too many dims
		Grid(1<<11, 1<<11),              // node-count overflow
		{Dims: []DimSpec{{Size: 4, Wrap: true, GBps: -1}}},
		{Dims: []DimSpec{{Size: 4, Wrap: true, LatCycles: -1}}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Fatalf("case %d: invalid topology %s accepted", i, b)
		}
	}
}

func TestNeighborWraparound(t *testing.T) {
	tor := Torus3(4, 2, 2)
	id := tor.ID(3, 0, 0)
	if got := tor.Neighbor(id, DimLocal, +1); got != tor.ID(0, 0, 0) {
		t.Fatalf("wraparound +1 failed: %d", got)
	}
	if got := tor.Neighbor(tor.ID(0, 0, 0), DimLocal, -1); got != id {
		t.Fatalf("wraparound -1 failed: %d", got)
	}
	// Vertical neighbor keeps l and h.
	n := tor.Neighbor(tor.ID(1, 0, 1), DimVertical, +1)
	c := tor.Coords(n)
	if c[0] != 1 || c[1] != 1 || c[2] != 1 {
		t.Fatalf("vertical neighbor wrong: %v", c)
	}
}

func TestNeighborInverse(t *testing.T) {
	// neighbor(+1) then neighbor(-1) is the identity on every dim, wrap
	// or mesh (Neighbor is the logical ring).
	f := func(a, b, c uint8, dimRaw uint8, mesh bool) bool {
		tor := Grid(int(a%5)+1, int(b%5)+1, int(c%5)+1)
		if mesh {
			tor.Dims[1].Wrap = false
		}
		d := Dim(dimRaw % 3)
		for id := NodeID(0); int(id) < tor.N(); id++ {
			if tor.Neighbor(tor.Neighbor(id, d, +1), d, -1) != id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHasLink(t *testing.T) {
	// 4-ring x 3-line: every ring hop has a wire; line hops stop at the
	// boundary.
	tor := Topology{Dims: []DimSpec{{Size: 4, Wrap: true}, {Size: 3}}}
	for id := NodeID(0); int(id) < tor.N(); id++ {
		if !tor.HasLink(id, 0, +1) || !tor.HasLink(id, 0, -1) {
			t.Fatalf("ring link missing at %d", id)
		}
		c := tor.Coord(id, 1)
		if got := tor.HasLink(id, 1, +1); got != (c < 2) {
			t.Fatalf("mesh +1 link at coord %d = %v", c, got)
		}
		if got := tor.HasLink(id, 1, -1); got != (c > 0) {
			t.Fatalf("mesh -1 link at coord %d = %v", c, got)
		}
	}
	if Grid(1, 4).HasLink(0, 0, +1) {
		t.Fatal("size-1 dim has a link")
	}
}

func TestRouteXYZReachesDst(t *testing.T) {
	for _, tor := range []Topology{
		Torus3(4, 4, 4),
		{Dims: []DimSpec{{Size: 4}, {Size: 4, Wrap: true}, {Size: 3}}},
		Grid(5, 5),
	} {
		for src := NodeID(0); int(src) < tor.N(); src += 7 {
			for dst := NodeID(0); int(dst) < tor.N(); dst += 5 {
				path := tor.RouteXYZ(src, dst)
				if src == dst {
					if len(path) != 0 {
						t.Fatalf("self-route not empty: %v", path)
					}
					continue
				}
				if path[len(path)-1] != dst {
					t.Fatalf("route %d->%d ends at %d", src, dst, path[len(path)-1])
				}
				// Every consecutive pair must be physically linked.
				cur := src
				for _, hop := range path {
					ok := false
					for d := Dim(0); int(d) < tor.NumDims(); d++ {
						for _, dir := range []int{+1, -1} {
							if tor.HasLink(cur, d, dir) && tor.Neighbor(cur, d, dir) == hop {
								ok = true
							}
						}
					}
					if !ok {
						t.Fatalf("%s: route %d->%d: %d and %d not linked", tor, src, dst, cur, hop)
					}
					cur = hop
				}
			}
		}
	}
}

func TestRouteXYZShortest(t *testing.T) {
	// On each wrap dimension the route takes at most size/2 hops; on a
	// mesh dimension at most size-1. Diameter is that bound, and the
	// corner-to-corner route meets it.
	tor := Topology{Dims: []DimSpec{{Size: 8, Wrap: true}, {Size: 4}, {Size: 2, Wrap: true}}}
	maxHops := 8/2 + (4 - 1) + 2/2
	if d := tor.Diameter(); d != maxHops {
		t.Fatalf("Diameter() = %d, want %d", d, maxHops)
	}
	if n := len(tor.RouteXYZ(tor.ID(0, 0, 0), tor.ID(4, 3, 1))); n != maxHops {
		t.Fatalf("corner route takes %d hops, want %d", n, maxHops)
	}
	f := func(s, d uint16) bool {
		src := NodeID(int(s) % tor.N())
		dst := NodeID(int(d) % tor.N())
		return len(tor.RouteXYZ(src, dst)) <= maxHops
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRouteXYZDimOrder(t *testing.T) {
	// Dimension-order routing resolves dim 0 first, then 1, then 2.
	tor := Torus3(4, 4, 4)
	src := tor.ID(0, 0, 0)
	dst := tor.ID(1, 1, 1)
	path := tor.RouteXYZ(src, dst)
	if len(path) != 3 {
		t.Fatalf("path length %d, want 3", len(path))
	}
	want := []NodeID{tor.ID(1, 0, 0), tor.ID(1, 1, 0), tor.ID(1, 1, 1)}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path[%d] = %d, want %d", i, path[i], want[i])
		}
	}
}

func TestRouteXYZMeshMonotone(t *testing.T) {
	// A mesh dimension never wraps: 0 -> 7 on an 8-line takes 7 hops.
	tor := Topology{Dims: []DimSpec{{Size: 8}}}
	path := tor.RouteXYZ(0, 7)
	if len(path) != 7 {
		t.Fatalf("mesh route wrapped: %v", path)
	}
	// The same shape with wrap takes the short way round.
	ring := Ring1(8)
	if got := len(ring.RouteXYZ(0, 7)); got != 1 {
		t.Fatalf("ring route len %d, want 1", got)
	}
}

func TestOffsetIDEnumeratesAll(t *testing.T) {
	for _, tor := range []Topology{Torus3(4, 2, 2), Grid(3, 5), Grid(6), Grid(2, 2, 2, 2)} {
		for self := NodeID(0); int(self) < tor.N(); self++ {
			seen := map[NodeID]bool{self: true}
			for off := 1; off < tor.N(); off++ {
				id := tor.OffsetID(self, off)
				if seen[id] {
					t.Fatalf("%s: OffsetID(%d,%d) = %d repeated", tor, self, off, id)
				}
				seen[id] = true
			}
			if len(seen) != tor.N() {
				t.Fatalf("%s: offsets from %d cover %d/%d nodes", tor, self, len(seen), tor.N())
			}
		}
	}
}

func TestOffsetIDMatchesCoordinateShift(t *testing.T) {
	tor := Torus3(4, 3, 2)
	self := tor.ID(3, 1, 1)
	for off := 0; off < tor.N(); off++ {
		oc := tor.Coords(NodeID(off))
		sc := tor.Coords(self)
		want := tor.ID((sc[0]+oc[0])%4, (sc[1]+oc[1])%3, (sc[2]+oc[2])%2)
		if got := tor.OffsetID(self, off); got != want {
			t.Fatalf("OffsetID(%d,%d) = %d, want %d", self, off, got, want)
		}
	}
}

func TestRingRank(t *testing.T) {
	tor := Torus3(4, 8, 4)
	id := tor.ID(2, 5, 3)
	if tor.RingRank(id, DimLocal) != 2 || tor.RingRank(id, DimVertical) != 5 || tor.RingRank(id, DimHorizontal) != 3 {
		t.Fatal("ring ranks do not match coordinates")
	}
}

func TestDimString(t *testing.T) {
	if DimLocal.String() != "local" || DimVertical.String() != "vertical" || DimHorizontal.String() != "horizontal" {
		t.Fatal("dim names wrong")
	}
	if Dim(9).String() != "dim(9)" {
		t.Fatalf("unknown dim: %s", Dim(9))
	}
}

func TestTopologyString(t *testing.T) {
	for s, want := range map[string]string{
		"4x8x4": "4x8x4",
		"8x8m":  "8x8m",
		"16":    "16",
		"2m x3": "", // spaces rejected
	} {
		tor, err := ParseTopology(s)
		if want == "" {
			if err == nil {
				t.Fatalf("%q accepted", s)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if got := tor.String(); got != want {
			t.Fatalf("String(%q) = %q", s, got)
		}
	}
	if got := (Torus3(4, 8, 4)).String(); got != "4x8x4" {
		t.Fatalf("String = %q", got)
	}
	if got := (Topology{}).String(); got != "empty" {
		t.Fatalf("empty String = %q", got)
	}
}

func TestParseTopologyRejects(t *testing.T) {
	for _, bad := range []string{
		"", "x", "4x", "x4", "0x2x2", "axbxc", "4x-2", "4xm", "m4",
		"1048577", "2048x2048", "1x1x1x1x1x1x1x1x1", "4.5", " 4", "4 ",
	} {
		if _, err := ParseTopology(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestTopologyEqual(t *testing.T) {
	a := Torus3(4, 2, 2)
	if !a.Equal(Torus3(4, 2, 2)) {
		t.Fatal("identical topologies unequal")
	}
	for _, b := range []Topology{
		Torus3(4, 2, 1),
		Grid(4, 2),
		{Dims: []DimSpec{{Size: 4, Wrap: true}, {Size: 2, Wrap: true}, {Size: 2}}},
		{Dims: []DimSpec{{Size: 4, Wrap: true, GBps: 100}, {Size: 2, Wrap: true}, {Size: 2, Wrap: true}}},
	} {
		if a.Equal(b) {
			t.Fatalf("%s equal to %s", a, b)
		}
	}
}

func TestTopologyUnmarshalJSON(t *testing.T) {
	var tor Topology
	if err := json.Unmarshal([]byte(`"4x4m"`), &tor); err != nil {
		t.Fatal(err)
	}
	if !tor.Equal(Topology{Dims: []DimSpec{{Size: 4, Wrap: true}, {Size: 4}}}) {
		t.Fatalf("string form parsed to %+v", tor)
	}
	if err := json.Unmarshal([]byte(`{"dims":[{"size":8,"wrap":true,"gbps":200},{"size":2,"wrap":false,"lat_cycles":40}]}`), &tor); err != nil {
		t.Fatal(err)
	}
	want := Topology{Dims: []DimSpec{{Size: 8, Wrap: true, GBps: 200}, {Size: 2, LatCycles: 40}}}
	if !tor.Equal(want) {
		t.Fatalf("object form parsed to %+v", tor)
	}
	for _, bad := range []string{
		`"0x2"`, `{"dims":[]}`, `{"dims":[{"size":0}]}`,
		`{"dims":[{"size":4,"bogus":1}]}`, `{"bogus":[]}`, `42`,
	} {
		if err := json.Unmarshal([]byte(bad), &tor); err == nil {
			t.Fatalf("%s accepted", bad)
		}
	}
}
