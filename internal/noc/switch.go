package noc

import (
	"fmt"

	"acesim/internal/des"
	"acesim/internal/resource"
	"acesim/internal/stats"
)

// SwitchConfig configures an NVSwitch-like single-hop fabric: every NPU has
// one egress and one ingress port into a non-blocking switch. This is the
// Section III measurement platform (8 V100s, 150 GB/s per GPU).
type SwitchConfig struct {
	N          int     // number of NPUs
	PortGBps   float64 // per-port bandwidth (per direction)
	LatCycles  int
	Efficiency float64
	FreqGHz    float64
}

// SwitchNet is a single-hop crossbar fabric. Transfers serialize on the
// source's egress port and the destination's ingress port; the switch core
// is non-blocking.
type SwitchNet struct {
	eng      *des.Engine
	cfg      SwitchConfig
	egress   []*resource.Server
	ingress  []*resource.Server
	lat      des.Time
	injected stats.Meter
}

// NewSwitch builds the switch fabric.
func NewSwitch(eng *des.Engine, cfg SwitchConfig) (*SwitchNet, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("noc: switch needs >= 2 NPUs, got %d", cfg.N)
	}
	eff := cfg.Efficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	s := &SwitchNet{
		eng: eng,
		cfg: cfg,
		lat: des.Cycles(cfg.LatCycles, cfg.FreqGHz),
	}
	for i := 0; i < cfg.N; i++ {
		eg := resource.NewServer(eng, fmt.Sprintf("sw-egress(%d)", i), cfg.PortGBps*eff)
		in := resource.NewServer(eng, fmt.Sprintf("sw-ingress(%d)", i), cfg.PortGBps*eff)
		s.egress = append(s.egress, eg)
		s.ingress = append(s.ingress, in)
	}
	return s, nil
}

// N returns the number of NPUs.
func (s *SwitchNet) N() int { return s.cfg.N }

// NumPorts returns the number of unidirectional ports (for utilization
// capacity).
func (s *SwitchNet) NumPorts() int { return 2 * s.cfg.N }

// InjectedBytes returns the total bytes injected.
func (s *SwitchNet) InjectedBytes() int64 { return s.injected.Total() }

// Send transfers bytes from src to dst through the switch, calling deliver
// at dst once fully received.
func (s *SwitchNet) Send(src, dst NodeID, bytes int64, deliver func()) {
	if src == dst {
		s.eng.After(0, deliver)
		return
	}
	s.injected.Add(bytes)
	lat := s.lat
	s.egress[src].Request(bytes, func() {
		s.eng.After(lat, func() {
			s.ingress[dst].Request(bytes, deliver)
		})
	})
}

// SendNeighbor implements ring traffic over the switch: the ring is logical
// (rank order), every hop crosses the switch once.
func (s *SwitchNet) SendNeighbor(src NodeID, _ Dim, dir int, bytes int64, deliver func()) {
	n := NodeID(s.cfg.N)
	dst := (src + NodeID(dir) + n) % n
	s.Send(src, dst, bytes, deliver)
}

// EgressBusy returns cumulative egress serialization time for node id.
func (s *SwitchNet) EgressBusy(id NodeID) des.Time { return s.egress[id].BusyTime() }
