package core

import "acesim/internal/des"

// Ideal is the paper's upper-bound endpoint: every received message is
// "magically processed and ready after 1 cycle" (Fig 5 caption), sends and
// phase transitions are equally free, and no NPU resource is touched.
// Only the fabric itself limits collective performance.
type Ideal struct {
	eng *des.Engine
	tic des.Time
}

// NewIdeal returns the ideal endpoint; freqGHz sets the 1-cycle cost.
func NewIdeal(eng *des.Engine, freqGHz float64) *Ideal {
	return &Ideal{eng: eng, tic: cycle(freqGHz)}
}

// Admit implements Endpoint.
func (i *Ideal) Admit(c *Chunk, fn func(any), arg any) { i.eng.AfterCtx(i.tic, fn, arg) }

// NextPhase implements Endpoint.
func (i *Ideal) NextPhase(c *Chunk, p int, fn func(any), arg any) { i.eng.AfterCtx(i.tic, fn, arg) }

// SourceSend implements Endpoint.
func (i *Ideal) SourceSend(c *Chunk, p int, kind PhaseKind, bytes int64, fn func(any), arg any) {
	i.eng.AfterCtx(i.tic, fn, arg)
}

// SinkRecv implements Endpoint.
func (i *Ideal) SinkRecv(c *Chunk, p int, kind PhaseKind, bytes int64, reduce bool, fn func(any), arg any) {
	i.eng.AfterCtx(i.tic, fn, arg)
}

// Forward implements Endpoint.
func (i *Ideal) Forward(bytes int64, fn func(any), arg any) { i.eng.AfterCtx(i.tic, fn, arg) }

// Drain implements Endpoint.
func (i *Ideal) Drain(c *Chunk, fn func(any), arg any) { i.eng.AfterCtx(i.tic, fn, arg) }

var _ Endpoint = (*Ideal)(nil)
