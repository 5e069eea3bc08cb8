package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"uwpos/internal/service"
)

// serveWorkload drives uwposd's HTTP API, served in-process on a loopback
// listener, with closed-loop clients. Each client repeats the session
// lifecycle: create a dock N=4 session, run rounds each followed by a
// track read, delete.
type serveWorkload struct {
	clients   int // concurrent closed-loop clients
	rounds    int // rounds per session
	scored    int // sessions 0..scored−1 always run every round
	seed      int64
	specs     []deployment // the scored sessions' deployments
	tmpRoot   string
	stateDir  string
	srv       *service.Server
	hs        *http.Server
	served    chan error
	base      string
	client    *http.Client
	lastStatz service.Statz
}

func (w *serveWorkload) setup(ctx context.Context, seed int64) error {
	w.seed = seed
	w.specs = make([]deployment, w.scored)
	for k := range w.specs {
		w.specs[k] = genServeSpec(seed, k)
	}
	dir, err := os.MkdirTemp(w.tmpRoot, "uwposd-state-")
	if err != nil {
		return err
	}
	w.stateDir = dir
	if w.srv, err = service.NewServer(ctx, service.Config{StateDir: dir}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.clients}}

	rec := newRecorder(false)
	w.lifecycle(ctx, rec, -1, time.Time{})
	if rec.failed > 0 {
		return fmt.Errorf("warm-up session: %s", rec.errs[0])
	}
	w.lastStatz, err = w.statz(ctx)
	return err
}

func (w *serveWorkload) close() {
	if w.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = w.hs.Shutdown(ctx) // a timeout still leaves Close below to end Serve
		cancel()
		_ = w.hs.Close()
		<-w.served
		w.client.CloseIdleConnections()
		w.hs = nil
	}
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.stateDir != "" {
		_ = os.RemoveAll(w.stateDir) // scratch under the run's temp dir
		w.stateDir = ""
	}
}

// serveRound is one round of a scored session, kept for the RNG-determined
// metrics.
type serveRound struct {
	degraded bool
	err2d    []float64
}

func (w *serveWorkload) measure(ctx context.Context, deadline time.Time, rec *recorder) error {
	var (
		mu     sync.Mutex
		scored = map[int][]serveRound{}
		httpMS []float64 // client latency − server e2e, per round
		next   atomic.Int64
	)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= w.scored && !time.Now().Before(deadline) {
					return
				}
				cut := deadline
				if k < w.scored {
					cut = time.Time{}
				}
				life := w.lifecycle(ctx, rec, k, cut)
				mu.Lock()
				if k < w.scored {
					scored[k] = life.rounds
				}
				httpMS = append(httpMS, life.httpMS...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	var err2d []float64
	total, degraded := 0, 0
	for k := 0; k < w.scored; k++ {
		for _, r := range scored[k] {
			total++
			if r.degraded {
				degraded++
			}
			err2d = append(err2d, r.err2d...)
		}
	}
	rec.acc["loc_err2d_p50_m"] = median(err2d)
	rec.acc["degraded_frac"] = ratio(float64(degraded), total)

	sz, err := w.statz(ctx)
	rec.attempt(err)
	if err != nil {
		return nil
	}
	exec, e2e := sz.LatencyMS["round_exec"].P50, sz.LatencyMS["round_e2e"].P50
	rec.counts["service.round_exec_ms_p50"] = exec
	rec.counts["service.queue_ms_p50"] = e2e - exec
	rec.counts["service.http_ms_p50"] = median(httpMS)
	rec.counts["service.snapshot_saves"] = float64(sz.Persistence.Saves - w.lastStatz.Persistence.Saves)
	rec.counts["service.snapshot_errors"] = float64(sz.Persistence.SaveErrors - w.lastStatz.Persistence.SaveErrors)
	rec.counts["service.rounds_degraded"] = float64(sz.Rounds.Degraded - w.lastStatz.Rounds.Degraded)
	w.lastStatz = sz
	return nil
}

// lifecycleResult is what one session contributes.
type lifecycleResult struct {
	rounds []serveRound
	httpMS []float64
}

// lifecycle runs session k (k < 0 is the warm-up: one round of a
// three-diver group, untimed).
// Rounds stop early once cut has passed, unless cut is zero.
func (w *serveWorkload) lifecycle(ctx context.Context, rec *recorder, k int, cut time.Time) lifecycleResult {
	var res lifecycleResult
	var spec deployment
	switch {
	case k < 0:
		spec = warmup
	case k < len(w.specs):
		spec = w.specs[k]
	default:
		spec = genServeSpec(w.seed, k)
	}
	rounds := w.rounds
	if k < 0 {
		rounds = 1
	}
	life := rec.begin("serve.lifecycle", 0, int64(k))
	defer rec.end(life)

	body, _ := json.Marshal(specJSON(spec)) // plain structs always marshal
	t := rec.begin("service.create", life.id, life.op)
	var created struct {
		ID      string `json:"id"`
		Devices int    `json:"devices"`
		Env     string `json:"env"`
	}
	err := w.call(ctx, http.MethodPost, "/v1/sessions", body, http.StatusCreated, &created)
	rec.end(t)
	if err == nil && (created.ID == "" || created.Devices != len(spec.divers) || created.Env != spec.env) {
		err = fmt.Errorf("create answered %+v", created)
	}
	rec.attempt(wrapf(err, "session %d create", k))
	if err != nil {
		return res
	}
	path := "/v1/sessions/" + created.ID

	n := len(spec.divers)
	hadFix := false
	for r := 1; r <= rounds; r++ {
		if !cut.IsZero() && r > 1 && !time.Now().Before(cut) {
			break
		}
		var rep service.RoundReport
		t = rec.begin("service.round", life.id, life.op)
		err = w.call(ctx, http.MethodPost, path+"/rounds", nil, http.StatusOK, &rep)
		ms := rec.end(t)
		if err == nil {
			err = checkRoundReport(&rep, r, n)
		}
		rec.attempt(wrapf(err, "session %d round %d", k, r))
		if err != nil {
			break
		}
		rec.roundDone(ms, true)
		res.httpMS = append(res.httpMS, ms-rep.ElapsedMS)
		sr := serveRound{degraded: rep.Degraded}
		if len(rep.Positions) == n {
			hadFix = true
			xy := make([][2]float64, n)
			for _, p := range rep.Positions {
				xy[p.Device] = [2]float64{p.X, p.Y}
			}
			sr.err2d = err2D(xy, spec.divers)
		}
		res.rounds = append(res.rounds, sr)

		var tr service.TrackReport
		t = rec.begin("service.track", life.id, life.op)
		err = w.call(ctx, http.MethodGet, path+"/track", nil, http.StatusOK, &tr)
		rec.end(t)
		if err == nil {
			err = checkTrackReport(&tr, r, n, hadFix)
		}
		rec.attempt(wrapf(err, "session %d track after round %d", k, r))
		if err != nil {
			break
		}
	}

	t = rec.begin("service.delete", life.id, life.op)
	err = w.call(ctx, http.MethodDelete, path, nil, http.StatusNoContent, nil)
	rec.end(t)
	rec.attempt(wrapf(err, "session %d delete", k))
	return res
}

func wrapf(err error, format string, args ...any) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), err)
}

func specJSON(d deployment) service.SessionSpec {
	spec := service.SessionSpec{Env: d.env, Seed: d.seed, OccludedLinks: d.occluded}
	for _, p := range d.divers {
		spec.Divers = append(spec.Divers, service.DiverSpec{X: p.X, Y: p.Y, Z: p.Z})
	}
	return spec
}

// call sends one request and checks the status; with out non-nil the body
// must decode into out with no unknown fields and nothing after it.
func (w *serveWorkload) call(ctx context.Context, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(raw))
	}
	if out == nil {
		if len(raw) != 0 {
			return fmt.Errorf("%s %s: unexpected body %q", method, path, raw)
		}
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("%s %s: body: %w", method, path, err)
	}
	if dec.More() {
		return fmt.Errorf("%s %s: trailing data after JSON body", method, path)
	}
	return nil
}

func (w *serveWorkload) statz(ctx context.Context) (service.Statz, error) {
	var sz service.Statz
	if err := w.call(ctx, http.MethodGet, "/v1/statz", nil, http.StatusOK, &sz); err != nil {
		return sz, err
	}
	if sz.Persistence == nil {
		return sz, errors.New("statz: no persistence counters with a state directory")
	}
	for _, name := range []string{"round_e2e", "round_exec", "track"} {
		if _, ok := sz.LatencyMS[name]; !ok {
			return sz, fmt.Errorf("statz: no %s latency", name)
		}
	}
	return sz, nil
}

// checkDevicePositions verifies that ps cover devices 0..n−1 exactly with
// finite values.
func checkDevicePositions(ps []service.DevicePosition, n int) error {
	devs := make([]int, len(ps))
	coords := make([][3]float64, len(ps))
	for i, p := range ps {
		devs[i], coords[i] = p.Device, [3]float64{p.X, p.Y, p.Z}
		if !finite(p.ConfidenceM) || p.ConfidenceM < 0 {
			return fmt.Errorf("device %d confidence %v", p.Device, p.ConfidenceM)
		}
	}
	return checkDevices(devs, coords, n)
}

// checkRoundReport verifies a round response. A round that could not be
// solved is degraded and may carry no positions before the session's
// first fix.
func checkRoundReport(rep *service.RoundReport, round, n int) error {
	if rep.Round != round {
		return fmt.Errorf("round number %d, want %d", rep.Round, round)
	}
	if rep.Degraded == (rep.Reason == "") {
		return fmt.Errorf("degraded=%v with reason %q", rep.Degraded, rep.Reason)
	}
	if !(rep.Degraded && len(rep.Positions) == 0) {
		if err := checkDevicePositions(rep.Positions, n); err != nil {
			return err
		}
	}
	for _, v := range []float64{rep.AtSec, rep.StressM, rep.LatencySec, rep.ElapsedMS} {
		if !finite(v) || v < 0 {
			return fmt.Errorf("round report field %v invalid", v)
		}
	}
	if rep.Anchors < 0 || rep.Anchors > n {
		return fmt.Errorf("%d anchors for %d devices", rep.Anchors, n)
	}
	return checkLinks(rep.DroppedLinks, n)
}

// checkTrackReport verifies a track response after round rounds.
func checkTrackReport(tr *service.TrackReport, round, n int, hadFix bool) error {
	if tr.Rounds != round {
		return fmt.Errorf("track reports %d rounds, want %d", tr.Rounds, round)
	}
	if tr.Degraded < 0 || tr.Degraded > round {
		return fmt.Errorf("track reports %d degraded of %d rounds", tr.Degraded, round)
	}
	if len(tr.Velocities) != len(tr.Positions) {
		return fmt.Errorf("%d velocities for %d positions", len(tr.Velocities), len(tr.Positions))
	}
	for _, v := range tr.Velocities {
		if !finite(v) || v < 0 {
			return fmt.Errorf("velocity %v", v)
		}
	}
	if !hadFix && len(tr.Positions) == 0 {
		return nil
	}
	return checkDevicePositions(tr.Positions, n)
}
