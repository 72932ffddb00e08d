// The metrics pass: folds a recorded trace into the paper's
// compute/communication overlap accounting (Fig 10/11). Per node the
// pass unions that node's compute spans and communication spans into
// disjoint interval sets; the intersection is overlapped communication,
// the remainder exposed. Utilization metrics average each link/HBM
// track's busy time over the run span.

package trace

import "sort"

// Breakdown is the paper-style per-run summary of a trace. All times
// are picoseconds, summed across nodes unless noted.
type Breakdown struct {
	// Span is the run's extent: the latest span end.
	Span int64
	// Nodes counts the distinct (proc, node) lanes with any compute or
	// comm span.
	Nodes int
	// Spans counts all recorded spans.
	Spans int
	// CommTotal is the unioned communication-in-flight time.
	CommTotal int64
	// CommOverlapped is comm time covered by compute on the same node.
	CommOverlapped int64
	// CommExposed = CommTotal - CommOverlapped.
	CommExposed int64
	// ComputeBusy is the unioned compute time.
	ComputeBusy int64
	// OverlapFrac = CommOverlapped / CommTotal (0 when no comm).
	OverlapFrac float64
	// LinkUtil / HBMUtil are busy/Span fractions averaged over all
	// KindLink / KindHBM tracks (0 when none).
	LinkUtil float64
	HBMUtil  float64
}

// ival is a half-open [lo, hi) interval.
type ival struct{ lo, hi int64 }

// nodeKey identifies one node lane across multi-job proc namespaces.
type nodeKey struct {
	proc string
	node int
}

// Span classes for the overlap math, indexed by LabelID.
const (
	classOther uint8 = iota
	classCompute
	classComm
)

// Breakdown computes the overlap accounting over everything recorded so
// far. Safe on nil (returns the zero Breakdown).
func (t *Tracer) Breakdown() Breakdown {
	var bd Breakdown
	if t == nil {
		return bd
	}
	bd.Spans = len(t.spans)

	// lane[i] is track i's (proc, node) lane, -1 for non-node tracks.
	lane := make([]int32, len(t.tracks))
	laneOf := make(map[nodeKey]int32)
	for i, tk := range t.tracks {
		lane[i] = -1
		if tk.Node < 0 {
			continue
		}
		k := nodeKey{proc: tk.Proc, node: tk.Node}
		id, ok := laneOf[k]
		if !ok {
			id = int32(len(laneOf))
			laneOf[k] = id
		}
		lane[i] = id
	}
	class := make([]uint8, len(t.labels))
	for i, l := range t.labels {
		switch l.Cat {
		case CatCompute:
			class[i] = classCompute
		case CatComm:
			class[i] = classComm
		}
	}

	compute := make([][]ival, len(laneOf))
	comm := make([][]ival, len(laneOf))
	trackBusy := make([]int64, len(t.tracks))
	for _, s := range t.spans {
		if s.End > bd.Span {
			bd.Span = s.End
		}
		if int(s.Track) < 0 || int(s.Track) >= len(t.tracks) {
			continue // unregistered track: counts toward the extent only
		}
		if k := t.tracks[s.Track].Kind; k == KindLink || k == KindHBM {
			trackBusy[s.Track] += s.End - s.Start
		}
		l := lane[s.Track]
		if l < 0 || int(s.Label) < 0 || int(s.Label) >= len(class) {
			continue
		}
		switch class[s.Label] {
		case classCompute:
			compute[l] = append(compute[l], ival{s.Start, s.End})
		case classComm:
			comm[l] = append(comm[l], ival{s.Start, s.End})
		}
	}

	for l := range compute {
		if len(compute[l]) == 0 && len(comm[l]) == 0 {
			continue
		}
		bd.Nodes++
		cu := union(compute[l])
		mu := union(comm[l])
		bd.ComputeBusy += total(cu)
		ct := total(mu)
		ov := intersect(cu, mu)
		bd.CommTotal += ct
		bd.CommOverlapped += ov
	}
	bd.CommExposed = bd.CommTotal - bd.CommOverlapped
	if bd.CommTotal > 0 {
		bd.OverlapFrac = float64(bd.CommOverlapped) / float64(bd.CommTotal)
	}

	if bd.Span > 0 {
		var linkSum, hbmSum float64
		var links, hbms int
		for id, tk := range t.tracks {
			switch tk.Kind {
			case KindLink:
				links++
				linkSum += float64(trackBusy[id]) / float64(bd.Span)
			case KindHBM:
				hbms++
				hbmSum += float64(trackBusy[id]) / float64(bd.Span)
			}
		}
		if links > 0 {
			bd.LinkUtil = linkSum / float64(links)
		}
		if hbms > 0 {
			bd.HBMUtil = hbmSum / float64(hbms)
		}
	}
	return bd
}

// union sorts and merges intervals into a disjoint ascending set.
func union(in []ival) []ival {
	if len(in) == 0 {
		return nil
	}
	sort.Slice(in, func(a, b int) bool {
		if in[a].lo != in[b].lo {
			return in[a].lo < in[b].lo
		}
		return in[a].hi < in[b].hi
	})
	out := in[:1]
	for _, iv := range in[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// total sums the lengths of a disjoint interval set.
func total(set []ival) int64 {
	var sum int64
	for _, iv := range set {
		sum += iv.hi - iv.lo
	}
	return sum
}

// intersect returns the total overlap between two disjoint ascending
// interval sets.
func intersect(a, b []ival) int64 {
	var sum int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].lo
		if b[j].lo > lo {
			lo = b[j].lo
		}
		hi := a[i].hi
		if b[j].hi < hi {
			hi = b[j].hi
		}
		if hi > lo {
			sum += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return sum
}
