// Package service is the session layer behind the uwposd daemon: a
// registry of concurrent ranging/localization sessions, each wrapping one
// simulated deployment (uwpos.System) plus its tracker, fronted by the
// HTTP+JSON API in http.go.
//
// Design notes, in the order they matter operationally:
//
//   - One session = one System = one dive group. Rounds within a session
//     are serialized (the simulator owns mutable per-round state) while
//     sessions run concurrently, bounded by a process-wide semaphore so a
//     burst of rounds degrades to queueing instead of memory exhaustion.
//   - Sessions degrade instead of fail: a round whose acoustics come back
//     too damaged to solve still answers 200, flagged degraded, with
//     positions extrapolated from the session's track when available.
//   - Heavy per-round scratch (audio slabs, FFT workspaces) is pooled:
//     reusing a session's System reuses its simulator buffers, and the
//     signal-processing layer shares matcher caches process-wide, so a
//     thousand idle sessions cost ~nothing and active ones amortize.
//   - Every request feeds latency sketches (stats.Sketch behind a mutex)
//     exposed on /v1/statz; the round path records end-to-end time
//     (including queue wait) and bare execution time separately.
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"uwpos"
	"uwpos/internal/faultinject"
	"uwpos/internal/stats"
)

// Service-level failures, mapped to HTTP statuses in http.go.
var (
	// ErrUnknownSession reports a session ID that does not exist (never
	// created, expired, or deleted).
	ErrUnknownSession = errors.New("service: unknown session")
	// ErrServerFull reports that the registry is at MaxSessions.
	ErrServerFull = errors.New("service: session limit reached")
)

// Config tunes a Server. The zero value is production-ready.
type Config struct {
	// MaxSessions caps the registry (default 8192). Creation beyond the
	// cap fails with ErrServerFull rather than degrading every session.
	MaxSessions int
	// MaxConcurrentRounds bounds rounds executing simultaneously across
	// all sessions (default GOMAXPROCS). Excess rounds queue; their
	// context deadline keeps counting while they wait.
	MaxConcurrentRounds int
	// SessionTTL evicts sessions idle longer than this (default 10 min;
	// negative disables eviction).
	SessionTTL time.Duration
	// RoundTimeout caps one round's end-to-end time when the request does
	// not set its own (default 2 min; negative disables the cap).
	RoundTimeout time.Duration
	// StateDir enables crash-safe session durability: every committed
	// round snapshots its session here (atomic rename, checksummed), and
	// NewServer restores all decodable snapshots on boot, quarantining
	// corrupt ones instead of failing. Empty disables persistence.
	StateDir string
	// Injector threads deterministic fault injection into the durability
	// and round paths. Nil (the production value) is inert.
	Injector *faultinject.Injector
}

func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 8192
	}
	if c.MaxConcurrentRounds == 0 {
		c.MaxConcurrentRounds = runtime.GOMAXPROCS(0)
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 10 * time.Minute
	}
	if c.RoundTimeout == 0 {
		c.RoundTimeout = 2 * time.Minute
	}
	return c
}

// Server owns the session registry and shared execution resources.
type Server struct {
	cfg     Config
	started time.Time

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   int64
	closed   bool

	// roundSem bounds concurrent round execution process-wide.
	roundSem chan struct{}

	// store persists session snapshots; nil when Config.StateDir is empty.
	store *Store

	stats serverStats

	evictStop chan struct{}
	evictDone chan struct{}
}

// NewServer builds a Server and starts its TTL eviction loop. With
// Config.StateDir set it also opens the snapshot store and restores
// every decodable session from disk before returning; the error covers
// an unusable state directory only — individual corrupt snapshots are
// quarantined and counted, never fatal.
func NewServer(ctx context.Context, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		started:   time.Now(),
		sessions:  make(map[string]*Session),
		roundSem:  make(chan struct{}, cfg.MaxConcurrentRounds),
		evictStop: make(chan struct{}),
		evictDone: make(chan struct{}),
	}
	s.stats.init()
	if cfg.StateDir != "" {
		store, err := OpenStore(cfg.StateDir, cfg.Injector)
		if err != nil {
			return nil, err
		}
		s.store = store
		if err := s.restoreAll(ctx); err != nil {
			return nil, err
		}
	}
	go s.evictLoop()
	return s, nil
}

// Close stops the eviction loop and drops all sessions.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.sessions = make(map[string]*Session)
	s.mu.Unlock()
	close(s.evictStop)
	<-s.evictDone
}

// CreateSession validates the spec, builds the deployment and registers a
// session. The returned session is live until deleted or TTL-evicted.
func (s *Server) CreateSession(spec SessionSpec) (*Session, error) {
	sess, err := newSession(spec, s)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sessions) >= s.cfg.MaxSessions {
		return nil, fmt.Errorf("%w (%d active)", ErrServerFull, len(s.sessions))
	}
	s.nextID++
	sess.ID = fmt.Sprintf("s-%d", s.nextID)
	s.sessions[sess.ID] = sess
	s.stats.sessionsCreated.Add(1)
	return sess, nil
}

// Session looks up a live session by ID.
func (s *Server) Session(id string) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	return sess, nil
}

// DeleteSession removes a session. Idempotent: deleting an unknown ID
// reports ErrUnknownSession.
func (s *Server) DeleteSession(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[id]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	delete(s.sessions, id)
	s.stats.sessionsDeleted.Add(1)
	s.dropSnapshot(id)
	return nil
}

// ActiveSessions returns the current registry size.
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// acquireRound blocks until a round execution slot is free or ctx ends.
// The release func is non-nil iff err is nil.
func (s *Server) acquireRound(ctx context.Context) (func(), error) {
	select {
	case s.roundSem <- struct{}{}:
		return func() { <-s.roundSem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (s *Server) evictLoop() {
	defer close(s.evictDone)
	if s.cfg.SessionTTL < 0 {
		<-s.evictStop
		return
	}
	period := s.cfg.SessionTTL / 4
	if period < time.Second {
		period = time.Second
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-s.evictStop:
			return
		case now := <-tick.C:
			s.evictIdle(now)
		}
	}
}

// evictIdle drops sessions whose last activity is older than the TTL.
// No-op when eviction is disabled.
func (s *Server) evictIdle(now time.Time) int {
	if s.cfg.SessionTTL < 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for id, sess := range s.sessions {
		if now.Sub(sess.lastUsed()) > s.cfg.SessionTTL {
			delete(s.sessions, id)
			s.stats.sessionsEvicted.Add(1)
			s.dropSnapshot(id)
			n++
		}
	}
	return n
}

// latencySketch is a stats.Sketch behind a mutex: the engine feeds
// sketches from a serialized sink, but HTTP handlers are concurrent.
type latencySketch struct {
	mu sync.Mutex
	sk *stats.Sketch
}

func newLatencySketch() *latencySketch { return &latencySketch{sk: stats.NewSketch()} }

func (l *latencySketch) add(d time.Duration) {
	l.mu.Lock()
	l.sk.Add(float64(d) / float64(time.Millisecond))
	l.mu.Unlock()
}

// summary returns count and the given quantiles (ms).
func (l *latencySketch) summary(ps ...float64) (int64, []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sk.Count(), l.sk.Quantiles(ps...)
}

// counter is a tiny atomic counter (avoiding sync/atomic.Int64 noise at
// call sites that also hold no other locks).
type counter struct {
	mu sync.Mutex
	n  int64
}

func (c *counter) Add(d int64) {
	c.mu.Lock()
	c.n += d
	c.mu.Unlock()
}

func (c *counter) Load() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

type serverStats struct {
	sessionsCreated  counter
	sessionsDeleted  counter
	sessionsEvicted  counter
	sessionsRestored counter
	roundsTotal      counter
	roundsDegraded   counter
	roundsFailed     counter

	snapshotSaves       counter
	snapshotErrors      counter
	snapshotQuarantined counter

	// roundE2E includes queue wait; roundExec is simulator time only.
	roundE2E  *latencySketch
	roundExec *latencySketch
	track     *latencySketch
}

func (st *serverStats) init() {
	st.roundE2E = newLatencySketch()
	st.roundExec = newLatencySketch()
	st.track = newLatencySketch()
}

// Statz is the /v1/statz payload.
type Statz struct {
	UptimeSec float64            `json:"uptime_sec"`
	Sessions  SessionCounts      `json:"sessions"`
	Rounds    RoundCounts        `json:"rounds"`
	LatencyMS map[string]Latency `json:"latency_ms"`
	// Persistence is present only when the server runs with a state
	// directory.
	Persistence *PersistenceCounts `json:"persistence,omitempty"`
}

// SessionCounts aggregates session lifecycle counters.
type SessionCounts struct {
	Created int64 `json:"created"`
	Active  int   `json:"active"`
	Deleted int64 `json:"deleted"`
	Evicted int64 `json:"evicted"`
	// Restored counts sessions rebuilt from disk snapshots at boot.
	Restored int64 `json:"restored,omitempty"`
}

// PersistenceCounts aggregates snapshot durability counters.
type PersistenceCounts struct {
	// Saves counts snapshot writes that reached disk.
	Saves int64 `json:"saves"`
	// SaveErrors counts snapshot writes that failed (the session kept
	// serving; its replay window widened to the previous save).
	SaveErrors int64 `json:"save_errors"`
	// Quarantined counts on-disk snapshots moved aside at boot because
	// they failed checksum, decode, or restore.
	Quarantined int64 `json:"quarantined"`
}

// RoundCounts aggregates round outcomes. Degraded rounds are included in
// Total; Failed counts hard failures only (deadline, cancellation).
type RoundCounts struct {
	Total    int64 `json:"total"`
	Degraded int64 `json:"degraded"`
	Failed   int64 `json:"failed"`
}

// Latency summarizes one endpoint's latency sketch in milliseconds.
type Latency struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Stats snapshots the server's counters and latency quantiles.
func (s *Server) Stats() Statz {
	st := Statz{
		UptimeSec: time.Since(s.started).Seconds(),
		Sessions: SessionCounts{
			Created:  s.stats.sessionsCreated.Load(),
			Active:   s.ActiveSessions(),
			Deleted:  s.stats.sessionsDeleted.Load(),
			Evicted:  s.stats.sessionsEvicted.Load(),
			Restored: s.stats.sessionsRestored.Load(),
		},
		Rounds: RoundCounts{
			Total:    s.stats.roundsTotal.Load(),
			Degraded: s.stats.roundsDegraded.Load(),
			Failed:   s.stats.roundsFailed.Load(),
		},
		LatencyMS: map[string]Latency{},
	}
	for name, l := range map[string]*latencySketch{
		"round_e2e":  s.stats.roundE2E,
		"round_exec": s.stats.roundExec,
		"track":      s.stats.track,
	} {
		n, qs := l.summary(50, 90, 99)
		for i, q := range qs {
			// An unobserved sketch answers NaN, which JSON cannot carry.
			if math.IsNaN(q) {
				qs[i] = 0
			}
		}
		st.LatencyMS[name] = Latency{Count: n, P50: qs[0], P90: qs[1], P99: qs[2]}
	}
	if s.store != nil {
		st.Persistence = &PersistenceCounts{
			Saves:       s.stats.snapshotSaves.Load(),
			SaveErrors:  s.stats.snapshotErrors.Load(),
			Quarantined: s.stats.snapshotQuarantined.Load(),
		}
	}
	return st
}

// validateSpec bounds a session spec before anything is built from it:
// the group size, finite diver coordinates and aim, and the fault links.
func validateSpec(spec SessionSpec) error {
	n := len(spec.Divers)
	if n > MaxDivers {
		return uwpos.ConfigError{Field: "Divers", Reason: fmt.Sprintf("%d divers, at most %d", n, MaxDivers)}
	}
	for i, d := range spec.Divers {
		if !finite(d.X) || !finite(d.Y) || !finite(d.Z) {
			return uwpos.ConfigError{Field: fmt.Sprintf("Divers[%d]", i), Reason: "coordinates must be finite"}
		}
	}
	if !finite(spec.PointingErrorRad) {
		return uwpos.ConfigError{Field: "PointingErrorRad", Reason: "must be finite"}
	}
	if err := validateLinks("OccludedLinks", spec.OccludedLinks, n); err != nil {
		return err
	}
	return validateLinks("DroppedLinks", spec.DroppedLinks, n)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// validateLinks checks a fault-link list against the device count.
func validateLinks(field string, links [][2]int, n int) error {
	for _, p := range links {
		if p[0] < 0 || p[1] < 0 || p[0] >= n || p[1] >= n || p[0] == p[1] {
			return uwpos.ConfigError{
				Field:  field,
				Reason: fmt.Sprintf("link [%d %d] invalid for %d devices", p[0], p[1], n),
			}
		}
	}
	return nil
}
