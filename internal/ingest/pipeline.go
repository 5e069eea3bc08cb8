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
	"uwpos/internal/faultinject"
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
	// Policy enables backpressure driven by the Meter's budget verdicts:
	// consecutive deadline misses engage shedding (drop to silence,
	// bounded queueing, or a degraded flag — see PolicyMode). Requires a
	// Meter; the zero value disables it.
	Policy Policy
	// Injector threads deterministic fault injection into the deadline
	// accounting: injected buffer latency is added to the measured
	// processing time, forcing budget misses on a scripted or seeded
	// schedule without sleeping. Nil is inert.
	Injector *faultinject.Injector
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

	// pol is the backpressure state machine; nil when Config.Policy is
	// PolicyNone. zeroScratch feeds owed silence through the normal path
	// at recovery without allocating per flush.
	pol         *policyState
	zeroScratch []float64

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
	if cfg.Policy.Mode != PolicyNone && cfg.Meter == nil {
		panic("ingest: Config.Policy needs a Meter (misses are its signal)")
	}
	p := &Pipeline{cfg: cfg}
	if cfg.Policy.Mode != PolicyNone {
		p.pol = newPolicyState(cfg.Policy)
	}
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
	// An engaged drop/queue policy withholds the buffer from processing:
	// capture-time cost is bookkeeping only, and the shed window replays
	// (as data or silence) in one batch at recovery.
	if p.pol != nil && p.pol.shedsCapture() {
		if p.pol.absorb(buf) {
			p.flushShed()
			p.pol.disengage()
		}
		return
	}
	m := p.cfg.Meter
	var t0 time.Time
	if m != nil {
		t0 = m.now()
	}
	p.deliver(p.filter(buf))
	if m != nil {
		// Injected latency backdates the start: the meter sees a slow
		// buffer without anyone sleeping, so fault-driven backpressure
		// tests stay deterministic and fast.
		if d := p.cfg.Injector.BufferLatency(); d > 0 {
			t0 = t0.Add(-d)
		}
		miss := m.observe(len(buf), float64(len(buf))/p.cfg.SampleRate, t0)
		if p.pol != nil && len(buf) > 0 {
			if p.pol.engaged && p.cfg.Policy.Mode == PolicyDegrade {
				p.pol.rep.DegradedBuffers++
			}
			p.pol.observeVerdict(miss)
		}
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
	// A shed window still pending at end of stream replays now: data
	// loss never exceeds what the policy decided at capture time.
	if p.pol != nil {
		p.flushShed()
		p.pol.disengage()
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

// Deadline reports the meter's aggregated per-buffer headroom; the zero
// report when no Meter is configured.
func (p *Pipeline) Deadline() DeadlineReport {
	if p.cfg.Meter == nil {
		return DeadlineReport{}
	}
	return p.cfg.Meter.Report()
}

// PolicyReport summarizes the pipeline's backpressure activity; the
// zero report when no policy is configured.
func (p *Pipeline) PolicyReport() PolicyReport {
	if p.pol == nil {
		return PolicyReport{}
	}
	return p.pol.rep
}

// flushShed replays the current shed window in capture order: absorbed
// raw buffers first (PolicyQueue), then the silence owed for dropped
// samples — both through the normal prefilter + scan path, so the
// sample grid and every downstream lag index stay exact.
func (p *Pipeline) flushShed() {
	queued, zeros := p.pol.drain()
	for _, q := range queued {
		p.deliver(p.filter(q))
	}
	p.pol.recycle(queued)
	if zeros > 0 && p.zeroScratch == nil {
		p.zeroScratch = make([]float64, 4096)
	}
	for zeros > 0 {
		n := min(zeros, len(p.zeroScratch))
		p.deliver(p.filter(p.zeroScratch[:n]))
		zeros -= n
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
