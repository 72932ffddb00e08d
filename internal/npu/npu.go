// Package npu models the resources of a single NPU endpoint node
// (Table V of the paper): a GPU-like compute engine with 80 SMs and
// 120 T-ops/s of FP16 peak, 900 GB/s of HBM bandwidth split between the
// training computation and the communication stack, and a 500 GB/s
// NPU-AFI bus.
//
// Memory-bandwidth accounting follows the paper's Section VI-A arithmetic:
// the "memory BW available for communication" knob is consumed by *read*
// traffic (the paper's 1.5N-reads-per-N-sent analysis and its 450 GB/s /
// 128 GB/s operating points are read-side numbers). Writes are metered and
// reported but do not occupy the knob.
package npu

import (
	"fmt"

	"acesim/internal/des"
	"acesim/internal/resource"
	"acesim/internal/stats"
)

// Params are the per-node hardware parameters (Table V defaults via
// DefaultParams).
type Params struct {
	FreqGHz     float64 // core clock (1.245 GHz)
	SMs         int     // streaming multiprocessors (80)
	PeakTOPS    float64 // peak compute, tera-ops/s FP16 (120)
	MemGBps     float64 // total HBM bandwidth (900)
	BusGBps     float64 // NPU-AFI bus bandwidth per direction (500)
	PerSMGBps   float64 // memory streaming rate a single SM can drive (80)
	LaunchOvh   des.Time
	CommMemGBps float64 // HBM share allocated to communication
	CommSMs     int     // SMs allocated to communication
	// ExclusiveComm models BaselineNoOverlap (Table VI): compute and
	// communication never run concurrently, so each gets the full
	// machine while it runs — the comm allocation is not subtracted
	// from the compute side.
	ExclusiveComm bool
}

// DefaultParams returns the Table V endpoint parameters. Communication
// allocations (CommMemGBps, CommSMs) default to the BaselineCommOpt
// operating point and are overridden per system configuration.
func DefaultParams() Params {
	return Params{
		FreqGHz:     1.245,
		SMs:         80,
		PeakTOPS:    120,
		MemGBps:     900,
		BusGBps:     500,
		PerSMGBps:   80,
		LaunchOvh:   5 * des.Microsecond,
		CommMemGBps: 450,
		CommSMs:     6,
	}
}

// Validate reports obviously inconsistent parameters.
func (p Params) Validate() error {
	if p.SMs <= 0 || p.PeakTOPS <= 0 || p.MemGBps <= 0 {
		return fmt.Errorf("npu: non-positive core parameters: %+v", p)
	}
	if p.CommSMs < 0 || p.CommSMs > p.SMs {
		return fmt.Errorf("npu: comm SMs %d out of range [0,%d]", p.CommSMs, p.SMs)
	}
	if p.CommMemGBps < 0 || p.CommMemGBps > p.MemGBps {
		return fmt.Errorf("npu: comm mem BW %.0f out of range [0,%.0f]", p.CommMemGBps, p.MemGBps)
	}
	return nil
}

// Node bundles the contended resources of one NPU endpoint.
type Node struct {
	ID     int
	Params Params

	// CommMem serves communication *read* traffic. Its rate is
	// min(CommMemGBps, CommSMs × PerSMGBps) for SM-driven baselines, or
	// CommMemGBps for DMA-driven (ACE) endpoints; the endpoint model
	// configures it.
	CommMem *resource.Server
	// Bus serves NPU-AFI transfers (per direction).
	BusTX *resource.Server
	BusRX *resource.Server

	// WriteMeter counts communication write traffic (metered only; see
	// package comment).
	WriteMeter stats.Meter

	compute *Compute
}

// NewNode builds a node. commSMCapped selects whether the comm memory rate
// is capped by the SM streaming limit (true for SM-driven baselines, false
// for DMA/ACE endpoints).
func NewNode(eng *des.Engine, id int, p Params, commSMCapped bool) (*Node, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rate := p.CommMemGBps
	if commSMCapped {
		smCap := float64(p.CommSMs) * p.PerSMGBps
		if smCap < rate {
			rate = smCap
		}
	}
	n := &Node{
		ID:      id,
		Params:  p,
		CommMem: resource.NewServer(eng, fmt.Sprintf("npu%d.commmem", id), rate),
		BusTX:   resource.NewServer(eng, fmt.Sprintf("npu%d.bustx", id), p.BusGBps),
		BusRX:   resource.NewServer(eng, fmt.Sprintf("npu%d.busrx", id), p.BusGBps),
	}
	n.compute = NewCompute(eng, p)
	return n, nil
}

// Compute returns the node's compute engine.
func (n *Node) Compute() *Compute { return n.compute }

// Kernel describes one compute kernel in roofline terms.
type Kernel struct {
	Name  string
	MACs  float64 // multiply-accumulate operations
	Bytes int64   // HBM traffic (weights + activations streamed)
	// MaxGBps, when > 0, caps the effective memory bandwidth of this
	// kernel below the compute allocation (random-access kernels such as
	// embedding gathers cannot stream at full HBM rate).
	MaxGBps float64
}

// Compute models the NPU's compute engine: kernels run serially on a single
// stream; duration is the roofline max of compute time (scaled by the SMs
// left over for training) and memory time (scaled by the HBM share left
// over for training).
type Compute struct {
	eng    *des.Engine
	p      Params
	busy   des.Time
	freeAt des.Time
	// Observers see every kernel's execution interval and HBM bytes;
	// KernelName names the kernel being reported.
	resource.Observers
	name string
	// kernels executed
	count int64
	// slow is the straggler factor: kernel durations scale by it when > 0
	// (0 means nominal speed; see SetSlowFactor).
	slow float64
}

// NewCompute returns a compute engine for the given parameters.
func NewCompute(eng *des.Engine, p Params) *Compute {
	return &Compute{eng: eng, p: p}
}

// FreeSMs returns the SMs available to training computation.
func (c *Compute) FreeSMs() int {
	if c.p.ExclusiveComm {
		return c.p.SMs
	}
	return c.p.SMs - c.p.CommSMs
}

// ComputeMemGBps returns the HBM bandwidth available to training
// computation.
func (c *Compute) ComputeMemGBps() float64 {
	if c.p.ExclusiveComm {
		return c.p.MemGBps
	}
	return c.p.MemGBps - c.p.CommMemGBps
}

// KernelTime returns the duration of k under the current resource split.
func (c *Compute) KernelTime(k Kernel) des.Time {
	smFrac := float64(c.FreeSMs()) / float64(c.p.SMs)
	peak := c.p.PeakTOPS * 1e12 * smFrac // ops/s
	var tc des.Time
	if k.MACs > 0 && peak > 0 {
		tc = des.Seconds(k.MACs / peak)
	}
	mem := c.ComputeMemGBps()
	if k.MaxGBps > 0 && k.MaxGBps < mem {
		mem = k.MaxGBps
	}
	tm := des.ByteDur(k.Bytes, mem)
	d := tc
	if tm > d {
		d = tm
	}
	d += c.p.LaunchOvh
	if c.slow > 0 {
		d = des.Time(float64(d) * c.slow)
	}
	return d
}

// SetSlowFactor makes the compute engine a straggler: every kernel issued
// from now on takes factor x its nominal duration (launch overhead
// included — a slow node is slow at everything). Factor 1 restores nominal
// speed; kernels already running keep their original finish time.
func (c *Compute) SetSlowFactor(factor float64) {
	if factor <= 0 {
		panic(fmt.Sprintf("npu: slow factor %g", factor))
	}
	c.slow = factor
}

// Stall pushes the compute stream's next free slot d into the future,
// modeling a checkpoint/restart pause: kernels issued after the stall wait
// for it, kernels already running are unaffected.
func (c *Compute) Stall(d des.Time) {
	if now := c.eng.Now(); c.freeAt < now {
		c.freeAt = now
	}
	c.freeAt += d
}

// Run executes kernel k and calls done when it completes, returning the
// kernel's duration (for per-caller busy accounting when several jobs
// time-share the stream). Kernels queue FIFO on the single compute stream.
func (c *Compute) Run(k Kernel, done func()) des.Time {
	d := c.KernelTime(k)
	start := c.freeAt
	if now := c.eng.Now(); start < now {
		start = now
	}
	end := start + d
	c.freeAt = end
	c.busy += d
	c.count++
	c.Occupy(k.Name, start, end, k.Bytes)
	if done != nil {
		c.eng.At(end, done)
	}
	return d
}

// Occupy reports a kernel interval to the observers without queueing
// it on the stream or charging lifetime busy time. Run reports through
// it; experiment drivers call it directly for kernels modeled outside
// the stream — e.g. the Fig 4 microbenchmark, whose kernel is a rate
// change on the comm-memory server.
func (c *Compute) Occupy(name string, start, end des.Time, bytes int64) {
	c.name = name
	c.Report(start, end, bytes)
}

// KernelName returns the name of the kernel whose interval the
// observers are being handed.
func (c *Compute) KernelName() string { return c.name }

// BusyTime returns cumulative kernel execution time.
func (c *Compute) BusyTime() des.Time { return c.busy }

// Kernels returns the number of kernels executed.
func (c *Compute) Kernels() int64 { return c.count }
