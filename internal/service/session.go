package service

import (
	"context"
	"errors"
	"sync"
	"time"

	"uwpos"
)

// stressDegradedM is the residual-stress level (metres) above which a
// solved round is flagged degraded: the paper's outlier analysis treats
// normalized stress beyond ~1.5 m as a sign of unresolved bad links.
const stressDegradedM = 1.5

// baseConfidenceM is the floor on a reported position's 1σ error bar,
// matching the deployment median accuracy (§3).
const baseConfidenceM = 0.6

// defaultRoundSpacing advances the session clock between rounds when the
// client does not timestamp them (the protocol's periodic cadence).
const defaultRoundSpacing = 10.0 // seconds

// SessionSpec is the client-supplied deployment description
// (POST /v1/sessions body).
type SessionSpec struct {
	// Env names a preset environment: pool, dock, viewpoint, boathouse.
	Env string `json:"env"`
	// Divers place the group; index 0 is the leader, index 1 the pointed
	// diver. At least 3 and at most MaxDivers, with finite coordinates.
	Divers []DiverSpec `json:"divers"`
	// Seed drives the session's simulation randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
	// PointingErrorRad perturbs the leader's aim.
	PointingErrorRad float64 `json:"pointing_error_rad,omitempty"`
	// OccludedLinks lists device pairs with a blocked direct path.
	OccludedLinks [][2]int `json:"occluded_links,omitempty"`
	// DroppedLinks lists device pairs that cannot hear each other.
	DroppedLinks [][2]int `json:"dropped_links,omitempty"`
}

// MaxDivers caps SessionSpec.Divers. Every round renders all N·(N−1)
// device links at full audio rate, so cost grows as N², and the report
// phase splits the 1–5 kHz band into N FSK sub-bands whose tone spacing
// must stay above the 100 bps bit rate, which holds up to N = 13.
const MaxDivers = 13

// DiverSpec places one device.
type DiverSpec struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	Z float64 `json:"z"`
	// Watch selects the dive-computer depth gauge.
	Watch bool `json:"watch,omitempty"`
}

// Session is one live deployment: a System, its track state, and round
// bookkeeping. Rounds are serialized per session by mu; lastUsedAt feeds
// TTL eviction.
type Session struct {
	ID   string
	spec SessionSpec
	srv  *Server

	mu      sync.Mutex // serializes rounds and track reads
	sys     *uwpos.System
	tracker *uwpos.GroupTracker
	rounds  int
	// degraded counts rounds answered in degraded mode.
	degraded int
	// clock is the session-time of the last round (s since dive start).
	clock  float64
	hasFix bool

	usedMu     sync.Mutex
	lastUsedAt time.Time
}

func newSession(spec SessionSpec, srv *Server) (*Session, error) {
	env, err := uwpos.EnvironmentByName(spec.Env)
	if err != nil {
		return nil, uwpos.ConfigError{Field: "Env", Reason: err.Error()}
	}
	if err := validateSpec(spec); err != nil {
		return nil, err
	}
	n := len(spec.Divers)
	divers := make([]uwpos.Diver, n)
	for i, d := range spec.Divers {
		divers[i] = uwpos.Diver{Pos: uwpos.Vec3{X: d.X, Y: d.Y, Z: d.Z}, WatchGauge: d.Watch}
	}
	sys, err := uwpos.NewSystem(uwpos.SystemConfig{
		Env:              env,
		Divers:           divers,
		Seed:             spec.Seed,
		PointingErrorRad: spec.PointingErrorRad,
		OccludedLinks:    spec.OccludedLinks,
		DroppedLinks:     spec.DroppedLinks,
	})
	if err != nil {
		return nil, err
	}
	return &Session{
		spec:       spec,
		srv:        srv,
		sys:        sys,
		tracker:    uwpos.NewGroupTracker(uwpos.TrackerConfig{}),
		clock:      -defaultRoundSpacing,
		lastUsedAt: time.Now(),
	}, nil
}

func (s *Session) touch() {
	s.usedMu.Lock()
	s.lastUsedAt = time.Now()
	s.usedMu.Unlock()
}

func (s *Session) lastUsed() time.Time {
	s.usedMu.Lock()
	defer s.usedMu.Unlock()
	return s.lastUsedAt
}

// Devices returns the deployment size.
func (s *Session) Devices() int { return len(s.spec.Divers) }

// RoundRequest is the POST /v1/sessions/{id}/rounds body.
type RoundRequest struct {
	// AtSec timestamps the round in session time (seconds since dive
	// start). Zero means "previous + 10 s". Must not move backwards.
	AtSec float64 `json:"at_sec,omitempty"`
	// TimeoutMS bounds the round end to end, queue wait included
	// (0 = server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// DevicePosition is one device's entry in a round or track payload.
type DevicePosition struct {
	Device int     `json:"device"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Z      float64 `json:"z"`
	// ConfidenceM is the 1σ error bar: residual stress for solved rounds,
	// track uncertainty for extrapolated ones — wider when degraded.
	ConfidenceM float64 `json:"confidence_m"`
}

// RoundReport is the round response payload.
type RoundReport struct {
	Round int     `json:"round"`
	AtSec float64 `json:"at_sec"`
	// Degraded marks a round answered with reduced quality: unsolvable
	// acoustics (positions extrapolated from the track), dropped outlier
	// links, or residual stress past the accept threshold.
	Degraded bool `json:"degraded"`
	// Reason says why the round is degraded ("" when not).
	Reason    string           `json:"reason,omitempty"`
	Positions []DevicePosition `json:"positions"`
	// Anchors is the number of devices that contributed measured links.
	Anchors      int      `json:"anchors"`
	StressM      float64  `json:"residual_stress_m"`
	DroppedLinks [][2]int `json:"dropped_links,omitempty"`
	// LatencySec is the simulated protocol round time (0 if unsolved).
	LatencySec float64 `json:"latency_sec"`
	// ElapsedMS is wall-clock execution time on the server.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// RunRound executes one protocol round. The context deadline covers queue
// wait and execution; expiry surfaces context.DeadlineExceeded (504).
// Soft failures — acoustics too damaged to solve — degrade to track
// extrapolation instead of failing once the session has a prior fix.
func (s *Session) RunRound(ctx context.Context, req RoundRequest) (*RoundReport, error) {
	s.touch()
	start := time.Now()
	release, err := s.srv.acquireRound(ctx)
	if err != nil {
		s.srv.stats.roundsFailed.Add(1)
		return nil, err
	}
	defer release()

	s.mu.Lock()
	defer s.mu.Unlock()

	at := req.AtSec
	if at == 0 {
		at = s.clock + defaultRoundSpacing
	}
	if s.hasFix && at < s.clock {
		s.srv.stats.roundsFailed.Add(1)
		return nil, uwpos.ConfigError{Field: "AtSec", Reason: "round timestamp moves backwards"}
	}

	// Injected round latency (inert without a fault injector) stalls the
	// round while still honouring the caller's deadline.
	inj := s.srv.cfg.Injector
	if d := inj.RoundLatency(); d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			s.srv.stats.roundsFailed.Add(1)
			return nil, ctx.Err()
		}
	}

	execStart := time.Now()
	var out *uwpos.RoundOutcome
	if inj.DropAnchors() {
		// Injected anchor loss takes the same soft-failure path real
		// unusable acoustics would.
		err = errors.New("injected fault: all anchor measurements dropped")
	} else {
		out, err = s.sys.Locate(ctx)
	}
	execD := time.Since(execStart)
	s.srv.stats.roundExec.add(execD)

	if inj.Kill("round-commit") {
		// Crash emulation: the round ran but nothing commits — in memory
		// or on disk — exactly the state a kill -9 here would leave. The
		// client sees a failure and retries against the prior round.
		s.srv.stats.roundsFailed.Add(1)
		return nil, errors.New("service: injected crash before round commit")
	}

	rep := &RoundReport{AtSec: at}
	switch {
	case err == nil:
		s.consumeRound(at, out, rep)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.srv.stats.roundsFailed.Add(1)
		return nil, err
	default:
		// Soft failure: degrade rather than fail the session.
		s.degradeRound(at, err, rep)
	}

	s.rounds++
	rep.Round = s.rounds
	s.clock, s.hasFix = at, true
	if rep.Degraded {
		s.degraded++
		s.srv.stats.roundsDegraded.Add(1)
	}
	s.srv.stats.roundsTotal.Add(1)
	// Round committed: make it durable before answering, so a crash
	// after this response never rolls the session behind what the client
	// has seen. Persistence failure is counted, not surfaced — the round
	// result is already authoritative in memory.
	s.persistLocked()
	e2e := time.Since(start)
	s.srv.stats.roundE2E.add(e2e)
	rep.ElapsedMS = float64(e2e) / float64(time.Millisecond)
	s.touch()
	return rep, nil
}

// consumeRound fills rep from a solved round and feeds the tracker.
func (s *Session) consumeRound(at float64, out *uwpos.RoundOutcome, rep *RoundReport) {
	rep.StressM = out.Result.ResidualStress
	rep.DroppedLinks = out.Result.DroppedLinks
	rep.LatencySec = out.LatencySec
	rep.Anchors = anchorCount(out.Weights)

	// Per-device confidence: stress-driven floor, widened for devices on
	// a dropped link (their own measurements were rejected).
	conf := rep.StressM
	if conf < baseConfidenceM {
		conf = baseConfidenceM
	}
	onDropped := map[int]bool{}
	for _, p := range rep.DroppedLinks {
		onDropped[p[0]], onDropped[p[1]] = true, true
	}
	for _, p := range out.Result.Positions {
		c := conf
		if onDropped[p.Device] {
			c *= 2
		}
		rep.Positions = append(rep.Positions, DevicePosition{
			Device: p.Device, X: p.Pos.X, Y: p.Pos.Y, Z: p.Pos.Z, ConfidenceM: c,
		})
	}
	switch {
	case rep.StressM > stressDegradedM:
		rep.Degraded, rep.Reason = true, "residual stress above accept threshold"
	case len(rep.DroppedLinks) > 0:
		rep.Degraded, rep.Reason = true, "outlier links dropped"
	case rep.Anchors < len(s.spec.Divers):
		rep.Degraded, rep.Reason = true, "fewer anchors than devices"
	}
	// A degraded fix still improves the track — feed it regardless.
	if err := s.tracker.AddRound(at, out.Result); err != nil {
		// Validation failures here mean the round itself was malformed;
		// keep serving but flag it.
		rep.Degraded, rep.Reason = true, "track update rejected: "+err.Error()
	}
}

// degradeRound answers an unsolvable round from the session's track.
func (s *Session) degradeRound(at float64, cause error, rep *RoundReport) {
	rep.Degraded = true
	rep.Reason = "round unsolved: " + cause.Error()
	if !s.hasFix {
		// Nothing to extrapolate from: degraded with no positions.
		return
	}
	pos := s.tracker.PositionsAt(at)
	for dev := 0; dev < len(s.spec.Divers); dev++ {
		p, ok := pos[dev]
		if !ok {
			continue
		}
		c := s.tracker.UncertaintyOf(dev)
		if c < baseConfidenceM {
			c = baseConfidenceM
		}
		// Extrapolated positions carry no fresh measurement: widen.
		rep.Positions = append(rep.Positions, DevicePosition{
			Device: dev, X: p.X, Y: p.Y, Z: p.Z, ConfidenceM: 2 * c,
		})
	}
}

// anchorCount counts devices with at least one measured link.
func anchorCount(w [][]float64) int {
	n := 0
	for i := range w {
		for j := range w[i] {
			if i != j && w[i][j] > 0 {
				n++
				break
			}
		}
	}
	return n
}

// TrackReport is the GET /v1/sessions/{id}/track payload.
type TrackReport struct {
	AtSec  float64 `json:"at_sec"`
	Rounds int     `json:"rounds"`
	// Degraded counts degraded rounds so far.
	Degraded  int              `json:"degraded_rounds"`
	Positions []DevicePosition `json:"positions"`
	// Velocities are per-device horizontal speeds (m/s), indexed like
	// Positions.
	Velocities []float64 `json:"velocities_mps"`
}

// Track extrapolates every diver's track to the given session time
// (default: the last round's time).
func (s *Session) Track(atSec float64) *TrackReport {
	s.touch()
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	at := atSec
	if at == 0 {
		at = s.clock
	}
	rep := &TrackReport{AtSec: at, Rounds: s.rounds, Degraded: s.degraded}
	pos := s.tracker.PositionsAt(at)
	for dev := 0; dev < len(s.spec.Divers); dev++ {
		p, ok := pos[dev]
		if !ok {
			continue
		}
		c := s.tracker.UncertaintyOf(dev)
		rep.Positions = append(rep.Positions, DevicePosition{
			Device: dev, X: p.X, Y: p.Y, Z: p.Z, ConfidenceM: c,
		})
		rep.Velocities = append(rep.Velocities, s.tracker.VelocityOf(dev).Norm())
	}
	s.srv.stats.track.add(time.Since(start))
	return rep
}
