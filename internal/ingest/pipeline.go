// Package ingest is the real-time audio front end of the receiver: a
// Pipeline accepts fixed-size sample buffers at audio-callback cadence —
// the shape in which OpenSL ES hands a phone its microphone stream — runs
// the optional band-pass prefilter and exactly one shared dsp.BankStream
// forward transform per correlation block, and fans the per-template
// correlation lags out to every registered Consumer. Message detection,
// calibration argmax and the BeepBeep/CAT baselines all ride the same
// scan instead of each paying for its own pass over the stream.
//
// The pipeline carries deadline accounting throughout: an optional Meter
// measures each buffer's processing time against the buffer's real-time
// budget (audio duration × a configurable real-time-factor ceiling) and
// aggregates per-buffer headroom into streaming percentiles. With a nil
// Meter no clocks are read at all, so simulation hot paths stay free of
// timing syscalls and remain byte-deterministic.
//
// The prefilter is a dsp.FIRStream: overlap-save FFT filtering on a fixed
// block grid of the raw stream, so the band-limited samples consumers see
// are bit-identical for every buffer partition and to the one-shot
// sig.BandLimit. They arrive a whole filter block at a time, trailing
// the raw stream by up to one block hop plus the group delay.
//
// Steady state is allocation-free: the bank session reuses its emission
// buffers, the prefilter its pool-drawn scratch (returned at Close), and
// the provided consumers (ArgMax, Collect with reserved capacity) never
// grow — the property the AllocsPerRun gate in pipeline_test.go enforces.
package ingest

import (
	"time"

	"uwpos/internal/dsp"
)

// Config assembles a Pipeline.
type Config struct {
	// Bank is the template bank driving the shared scan: each consumer
	// receives its template's window-energy normalized correlation
	// (values in [-1, 1], see dsp.BankStream). Required.
	Bank *dsp.MatcherBank
	// SampleRate (Hz) converts buffer lengths to audio durations for the
	// deadline budget. Required when Meter is set; otherwise unused.
	SampleRate float64
	// Prefilter, when non-nil, is a linear-phase FIR (sig.BandLimitFIR)
	// applied to the raw stream before correlation through a
	// dsp.FIRStream: group delay compensated, tail zero-filled, blocks on
	// a fixed grid of the raw stream — the same engine and arithmetic as
	// sig.BandLimit. Consumers see the band-limited stream bit-for-bit as
	// a one-shot receiver would, whatever the buffer sizes.
	Prefilter *dsp.FIR
	// Meter, when non-nil, receives one deadline observation per Push.
	// A single Meter may be shared by many pipelines (sequentially) to
	// aggregate a whole round's ingest headroom.
	Meter *Meter
}

// Pipeline is one in-progress shared scan over one audio stream. Buffers
// go in via Push; correlation lags fan out to the registered consumers as
// they become computable. Close ends the stream, delivers every remaining
// lag and calls each consumer's Finish. A pipeline is single-stream and
// not safe for concurrent use.
type Pipeline struct {
	cfg       Config
	bs        *dsp.BankStream
	consumers []Consumer
	chunkCons []ChunkConsumer

	// fir is the streaming band-pass prefilter; nil when disabled.
	fir *dsp.FIRStream

	closed bool
}

// New builds a pipeline over cfg.Bank. It panics on a nil bank, or on a
// Meter without a positive SampleRate (the budget would be undefined).
func New(cfg Config) *Pipeline {
	if cfg.Bank == nil {
		panic("ingest: Config.Bank is required")
	}
	if cfg.Meter != nil && cfg.SampleRate <= 0 {
		panic("ingest: Config.Meter needs a positive SampleRate")
	}
	p := &Pipeline{cfg: cfg}
	p.bs = cfg.Bank.Stream()
	if cfg.Prefilter != nil {
		p.fir = cfg.Prefilter.Stream()
	}
	return p
}

// Register adds a consumer to the fan-out. Consumers implementing
// ChunkConsumer additionally receive every (filtered) sample buffer
// before the lags computed from it. Register before the first Push.
func (p *Pipeline) Register(c Consumer) {
	p.consumers = append(p.consumers, c)
	if cc, ok := c.(ChunkConsumer); ok {
		p.chunkCons = append(p.chunkCons, cc)
	}
}

// Fed returns the number of raw stream samples pushed so far.
func (p *Pipeline) Fed() int {
	if p.fir != nil {
		return p.fir.Fed()
	}
	return p.bs.Fed()
}

// Push consumes the next audio buffer (any length, including empty):
// prefilter, one shared forward transform per completed correlation
// block, consumer fan-out. When a Meter is configured the buffer's
// processing time is measured against its real-time budget.
func (p *Pipeline) Push(buf []float64) {
	if p.closed {
		panic("ingest: Pipeline.Push after Close")
	}
	m := p.cfg.Meter
	var t0 time.Time
	if m != nil {
		t0 = m.now()
	}
	p.deliver(p.filter(buf))
	if m != nil {
		m.observe(len(buf), float64(len(buf))/p.cfg.SampleRate, t0)
	}
}

// Close ends the stream: the prefilter's last block and zero-filled tail
// and the bank session's remaining tail blocks are delivered, then every
// consumer's Finish runs, and the prefilter's scratch goes back to the
// dsp pool. Close is idempotent; Push panics afterwards.
func (p *Pipeline) Close() {
	if p.closed {
		return
	}
	if p.fir != nil {
		p.deliver(p.fir.Flush())
	}
	p.fanOut(p.bs.Flush())
	p.closed = true
	for _, c := range p.consumers {
		c.Finish()
	}
	if p.fir != nil {
		p.fir.Release()
	}
}

// deliver hands one filtered buffer to the chunk consumers, advances the
// shared bank scan and fans the emitted lags out.
func (p *Pipeline) deliver(filt []float64) {
	for _, c := range p.chunkCons {
		c.Chunk(filt)
	}
	p.fanOut(p.bs.Feed(filt))
}

// fanOut delivers each template's non-empty lag row to every consumer.
// Rows alias bank-session buffers valid only for the duration of the
// call, so consumers reduce immediately or copy.
func (p *Pipeline) fanOut(rows [][]float64) {
	for i, row := range rows {
		if len(row) == 0 {
			continue
		}
		for _, c := range p.consumers {
			c.Lags(i, row)
		}
	}
}

// filter runs buf through the prefilter, when one is configured. The
// result may alias prefilter scratch, valid until the next call.
func (p *Pipeline) filter(buf []float64) []float64 {
	if p.fir == nil {
		return buf
	}
	return p.fir.Feed(buf)
}
