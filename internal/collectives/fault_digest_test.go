package collectives

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"acesim/internal/des"
	"acesim/internal/noc"
)

// faultDigest pins the timings of faulted runs. It is the SHA-256 of
// every line TestFaultDigest hashes; a change that moves any faulted
// completion time, recovery counter, drop, reroute, engine step or wire
// byte changes it. Re-record it only for an intended change, and list
// the values that moved.
const faultDigest = "c826d4a4e1da58266757c34602b33b4eb7736455dd2499f68e036fb8e298602e"

// TestFaultDigest runs 160 seeded faulted collectives — 40 random
// topologies, each under {ideal, baseline} endpoints × {all-reduce,
// all-to-all} — with a random schedule of link failures and restores
// inside the clean run's duration, and a recovery policy whose low
// MaxRetries makes transfers park and wake. The baseline endpoint
// charges a Forward cost at every intermediate hop of routed traffic.
// Each run contributes its per-node completion times, recovery stats,
// fabric drops and reroutes, engine steps and wire bytes to one hash.
func TestFaultDigest(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	h := sha256.New()
	var drops, reroutes, parked, woken int64
	for shape := 0; shape < 40; shape++ {
		tor := randomTopo(rng)
		for _, kind := range []string{"ideal", "baseline"} {
			for _, spec := range []Spec{
				{Kind: AllReduce, Bytes: 512 << 10, Plan: HierarchicalAllReduce(tor), Name: "digest-ar"},
				{Kind: AllToAll, Bytes: 512 << 10, Plan: DirectAllToAll(tor.N()), Name: "digest-a2a"},
			} {
				cleanDur := buildSys(t, tor, kind, DefaultConfig()).runSingle(t, spec)
				s := buildSys(t, tor, kind, DefaultConfig())
				s.net.EnableFaults(noc.RecoveryPolicy{Timeout: cleanDur/40 + des.Microsecond, Backoff: 2, MaxRetries: 2})
				for _, l := range randomLinks(rng, tor, 1+rng.Intn(3)) {
					l := l
					downAt := des.Time(rng.Int63n(int64(cleanDur)))
					upAt := downAt + 1 + des.Time(rng.Int63n(int64(cleanDur)/4+1))
					s.eng.At(downAt, func() { s.net.SetLinkUp(l.node, l.dim, l.dir, false) })
					s.eng.At(upAt, func() { s.net.SetLinkUp(l.node, l.dim, l.dir, true) })
				}
				var coll *Collective
				for i := 0; i < s.rt.Nodes(); i++ {
					coll = s.rt.Issue(noc.NodeID(i), spec, nil)
				}
				s.eng.Run()
				fmt.Fprintf(h, "%s %s %s:", tor, kind, spec.Name)
				for i := 0; i < s.rt.Nodes(); i++ {
					fmt.Fprintf(h, " %d", coll.CompleteAt(noc.NodeID(i)))
				}
				rec := s.net.Recovery()
				fmt.Fprintf(h, "\nrecovery %d %d %d %d %d %d %d parked-now %d\n",
					rec.Drops, rec.Retries, rec.Parked, rec.Woken, rec.Recovered,
					rec.FirstDropAt, rec.LastRecoverAt, s.net.ParkedTransfers())
				fmt.Fprintf(h, "net drops %d reroutes %d steps %d wire %d\n",
					s.net.Drops(), s.net.Reroutes(), s.eng.Steps(), s.net.TotalWireBytes())
				drops += s.net.Drops()
				reroutes += s.net.Reroutes()
				parked += int64(rec.Parked)
				woken += int64(rec.Woken)
			}
		}
	}
	t.Logf("fault digest: %d drops, %d reroutes, %d parked, %d woken", drops, reroutes, parked, woken)
	if drops == 0 || reroutes == 0 || parked == 0 || woken == 0 {
		t.Fatalf("schedules too tame to pin recovery: %d drops, %d reroutes, %d parked, %d woken",
			drops, reroutes, parked, woken)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != faultDigest {
		t.Errorf("fault digest = %s, want %s", got, faultDigest)
	}
}
