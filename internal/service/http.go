package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"uwpos"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/sessions             create a session
//	POST   /v1/sessions/{id}/rounds run one localization round
//	GET    /v1/sessions/{id}/track  extrapolate the session's track
//	DELETE /v1/sessions/{id}        tear a session down
//	GET    /v1/healthz              liveness
//	GET    /v1/statz                counters and latency quantiles
//
// Failure classes map to statuses via the public typed errors: caller
// mistakes (uwpos.ConfigError, malformed JSON) → 400, unknown session →
// 404, registry full → 429, deadline exceeded → 504.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("POST /v1/sessions/{id}/rounds", s.handleRound)
	mux.HandleFunc("GET /v1/sessions/{id}/track", s.handleTrack)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/statz", s.handleStatz)
	return mux
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	// Field names the offending config field for 400s, when known.
	Field string `json:"field,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError maps an error to its transport status.
func writeError(w http.ResponseWriter, err error) {
	body := errorBody{Error: err.Error()}
	status := http.StatusInternalServerError
	var ce uwpos.ConfigError
	switch {
	case errors.As(err, &ce):
		status, body.Field = http.StatusBadRequest, ce.Field
	case errors.Is(err, uwpos.ErrTooFewDivers):
		status = http.StatusBadRequest
	case errors.Is(err, ErrUnknownSession):
		status = http.StatusNotFound
	case errors.Is(err, ErrServerFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away mid-round; 499 is the de-facto convention.
		status = 499
	}
	writeJSON(w, status, body)
}

// maxBodyBytes caps a request body. A session spec at MaxDivers with
// every link listed is a few kilobytes.
const maxBodyBytes = 64 << 10

// decodeBody decodes one JSON value from a body of at most maxBodyBytes.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return uwpos.ConfigError{Field: "body", Reason: err.Error()}
	}
	return nil
}

// createResponse is the 201 payload.
type createResponse struct {
	ID      string `json:"id"`
	Devices int    `json:"devices"`
	Env     string `json:"env"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec SessionSpec
	if err := decodeBody(w, r, &spec); err != nil {
		writeError(w, err)
		return
	}
	sess, err := s.CreateSession(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, createResponse{
		ID: sess.ID, Devices: sess.Devices(), Env: spec.Env,
	})
}

func (s *Server) handleRound(w http.ResponseWriter, r *http.Request) {
	sess, err := s.Session(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	req := RoundRequest{}
	if r.ContentLength != 0 {
		if err := decodeBody(w, r, &req); err != nil {
			writeError(w, err)
			return
		}
	}
	if req.TimeoutMS < 0 {
		writeError(w, uwpos.ConfigError{Field: "TimeoutMS", Reason: "negative"})
		return
	}
	ctx := r.Context()
	timeout := s.cfg.RoundTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	rep, err := sess.RunRound(ctx, req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleTrack(w http.ResponseWriter, r *http.Request) {
	sess, err := s.Session(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	at := 0.0
	if q := r.URL.Query().Get("at_sec"); q != "" {
		at, err = strconv.ParseFloat(q, 64)
		if err != nil {
			writeError(w, uwpos.ConfigError{Field: "at_sec", Reason: err.Error()})
			return
		}
	}
	writeJSON(w, http.StatusOK, sess.Track(at))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.DeleteSession(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// healthzResponse is the liveness payload.
type healthzResponse struct {
	OK       bool   `json:"ok"`
	Sessions int    `json:"sessions"`
	Uptime   string `json:"uptime"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, healthzResponse{
		OK:       true,
		Sessions: s.ActiveSessions(),
		Uptime:   fmt.Sprintf("%.0fs", time.Since(s.started).Seconds()),
	})
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
