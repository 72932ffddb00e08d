package noc

import (
	"fmt"
	"math"

	"acesim/internal/des"
)

// ---------------------------------------------------------------------------
// Fault injection: mutable link state, in-flight drop detection and the
// abort-and-reissue recovery of dropped transfers.
//
// The fabric stays fault-free (direct hops are one scheduled event) until
// EnableFaults is called. After that every send rides a transfer record:
// links are checked for liveness at send time, and the per-link epoch is
// re-checked at delivery time so a link failing under an in-flight message
// drops it instead of delivering it for free. A dropped transfer is
// reissued whole from its source under the RecoveryPolicy — partially
// routed work is wasted on purpose; that waste is the modeled cost of the
// failure. The reissue re-plans the path (and any detour) from the link
// state at that time and carries the same bytes, so it cannot change what
// the collective computes.
// ---------------------------------------------------------------------------

// RecoveryPolicy tunes the reissue of transfers lost to link failures. A
// dropped transfer is reissued after Timeout x Backoff^(attempts-1); once
// MaxRetries timed reissues are exhausted while the killing link is still
// down, the transfer parks until any link restore wakes it. Parking is
// what makes a wedged phase degrade gracefully: with no timer churn left,
// the engine simply drains and the incomplete collective is reported by
// the caller's completion check ("finished on x/y nodes") instead of
// live-looping or deadlocking.
type RecoveryPolicy struct {
	// Timeout is the delay before the first reissue of a dropped transfer.
	Timeout des.Time
	// Backoff multiplies the reissue delay on every further attempt (>= 1).
	Backoff float64
	// MaxRetries bounds the timed reissues per transfer before it parks.
	MaxRetries int
}

// RecoveryStats aggregates what the recovery path did during a run.
type RecoveryStats struct {
	// Drops counts transfer losses (a transfer dropped k times counts k).
	Drops int
	// Retries counts timed reissues scheduled by the backoff policy.
	Retries int
	// Parked counts transfers that exhausted MaxRetries and waited for a
	// link restore.
	Parked int
	// Woken counts parked transfers released by a restore.
	Woken int
	// Recovered counts transfers that were dropped at least once and
	// eventually delivered.
	Recovered int
	// FirstDropAt / LastRecoverAt bracket the fault-affected interval.
	FirstDropAt   des.Time
	LastRecoverAt des.Time
}

// RecoveryTime returns the span from the first drop to the last recovered
// delivery — the run's observable recovery window. Zero when the run saw
// no drops (or nothing recovered).
func (s RecoveryStats) RecoveryTime() des.Time {
	if s.Drops == 0 || s.Recovered == 0 || s.LastRecoverAt < s.FirstDropAt {
		return 0
	}
	return s.LastRecoverAt - s.FirstDropAt
}

// Merge folds another fabric's stats into s (partitioned multi-job runs
// aggregate across per-tenant fabrics).
func (s RecoveryStats) Merge(o RecoveryStats) RecoveryStats {
	if o.Drops > 0 && (s.Drops == 0 || o.FirstDropAt < s.FirstDropAt) {
		s.FirstDropAt = o.FirstDropAt
	}
	if o.LastRecoverAt > s.LastRecoverAt {
		s.LastRecoverAt = o.LastRecoverAt
	}
	s.Drops += o.Drops
	s.Retries += o.Retries
	s.Parked += o.Parked
	s.Woken += o.Woken
	s.Recovered += o.Recovered
	return s
}

// EnableFaults makes link state matter: every send then checks liveness,
// and dropped transfers are reissued under pol, used as given.
// Irreversible for the run; call before issuing traffic.
func (n *Network) EnableFaults(pol RecoveryPolicy) {
	n.faultsOn = true
	n.pol = pol
}

// Drops returns the number of transfer drops so far (a transfer dropped k
// times counts k).
func (n *Network) Drops() int64 { return int64(n.rec.Drops) }

// Reroutes returns how many transfers detoured around a dead link.
func (n *Network) Reroutes() int64 { return n.reroutes }

// Recovery returns the run's recovery statistics (zero-valued on a
// fabric without faults).
func (n *Network) Recovery() RecoveryStats { return n.rec }

// ParkedTransfers returns how many transfers are currently parked awaiting
// a link restore — nonzero after the engine drains means the run wedged on
// a link that never came back.
func (n *Network) ParkedTransfers() int { return len(n.parked) }

// LinkUp reports the liveness of the link leaving from along d/dir.
func (n *Network) LinkUp(from NodeID, d Dim, dir int) bool {
	return n.mustLink(from, d, dir).up
}

// SetLinkUp fails (up=false) or restores (up=true) a link. Requires
// EnableFaults: without the liveness checks a dead link would still carry
// traffic silently. Downing a link bumps its epoch, dropping every message
// currently serializing on it at the moment it would have delivered;
// restoring it wakes every parked transfer.
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
	n.rec.Woken += len(n.parked)
	for _, x := range n.parked {
		n.eng.AfterCtx(0, routedRetry, x)
	}
	n.parked = n.parked[:0]
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

// drop loses the transfer on link l and schedules its reissue. Only a
// transfer whose killing link is still down parks once its timed retries
// are spent: a restore can save it. One dropped by a link that already
// came back (a transient epoch mismatch) always takes a timed retry —
// parking it could strand it, since the restore it would wait for has
// already happened.
func (x *routedXfer) drop(l *Link) {
	n := x.net
	x.attempts++
	if n.rec.Drops == 0 {
		n.rec.FirstDropAt = n.eng.Now()
	}
	n.rec.Drops++
	if int(x.attempts) > n.pol.MaxRetries && !l.up {
		n.rec.Parked++
		n.parked = append(n.parked, x)
		return
	}
	delay := des.Time(float64(n.pol.Timeout) * math.Pow(n.pol.Backoff, float64(x.attempts-1)))
	n.rec.Retries++
	n.eng.AfterCtx(delay, routedRetry, x)
}

// routedRetry reissues a dropped transfer from its source (AtCtx form).
func routedRetry(a any) { a.(*routedXfer).start() }

// appendDetour appends to path the links of a route around the dead
// (src, d, dir) link:
//
//  1. On a wraparound dimension, the reverse ring walk — size-1 hops the
//     other way around the ring — if every hop is up.
//  2. Otherwise an orthogonal dogleg: sidestep along a healthy orthogonal
//     dimension, cross d there on the parallel link, and step back.
//
// The path is the links checked, not a resolution of the hops by peer
// node: on a size-2 dimension the +1 and -1 wires join the same nodes.
// It returns path unextended when no fully healthy alternative exists.
func (n *Network) appendDetour(path []int32, src NodeID, d Dim, dir int) []int32 {
	t := n.cfg.Topo
	k := len(path)
	if t.Wrap(d) {
		cur := src
		for i := 0; i < t.Size(d)-1; i++ {
			j := n.linkIndex(cur, d, -dir)
			if !n.links[j].up {
				path = path[:k]
				break
			}
			path = append(path, int32(j))
			cur = n.links[j].To
		}
		if len(path) > k {
			return path
		}
	}
	dst := t.Neighbor(src, d, dir)
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
			side, across, back := n.linkIndex(src, e, ed), n.linkIndex(a, d, dir), n.linkIndex(b, e, -ed)
			if n.links[side].up && n.links[across].up && n.links[back].up {
				return append(path, int32(side), int32(across), int32(back))
			}
		}
	}
	return path
}
