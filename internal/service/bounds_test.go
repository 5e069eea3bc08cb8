package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"uwpos"
)

// diverList places n divers 3 m apart along x at 2 m depth.
func diverList(n int) []map[string]any {
	out := make([]map[string]any, n)
	for i := range out {
		out[i] = map[string]any{"x": 3 * i, "y": i % 2, "z": 2.0}
	}
	return out
}

// TestCreateBounds is the POST /v1/sessions bounds table: each oversized
// or non-finite request is a 400 naming its field, and the deployments
// the daemon is run with (dock N=4, a group at MaxDivers) are accepted.
func TestCreateBounds(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dock4 := map[string]any{
		"env": "dock", "seed": 1,
		"divers": []map[string]any{
			{"x": 0, "y": 0, "z": 2}, {"x": 8, "y": 2, "z": 3}, {"x": 15, "y": -6, "z": 1.5}, {"x": 22, "y": 5, "z": 4},
		},
		"occluded_links": [][2]int{{1, 3}},
	}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name   string
		body   []byte
		status int
		field  string
	}{
		{"dock N=4", marshal(dock4), http.StatusCreated, ""},
		{"MaxDivers", marshal(map[string]any{"env": "dock", "divers": diverList(MaxDivers)}), http.StatusCreated, ""},
		{"MaxDivers+1", marshal(map[string]any{"env": "dock", "divers": diverList(MaxDivers + 1)}), http.StatusBadRequest, "Divers"},
		{"1000 divers", marshal(map[string]any{"env": "dock", "divers": diverList(1000)}), http.StatusBadRequest, "Divers"},
		{"coordinate overflows float64", []byte(`{"env":"dock","divers":[{"x":0,"z":2},{"x":1e999,"z":2},{"x":5,"z":2}]}`), http.StatusBadRequest, "body"},
		{"body over the cap", append(bytes.Repeat([]byte(" "), maxBodyBytes), marshal(dock4)...), http.StatusBadRequest, "body"},
		{"diver below the bottom", []byte(`{"env":"dock","divers":[{"x":0,"z":2},{"x":5,"z":500},{"x":9,"z":2}]}`), http.StatusBadRequest, "Divers[1]"},
		{"diver above the surface", []byte(`{"env":"dock","divers":[{"x":0,"z":2},{"x":5,"z":-3},{"x":9,"z":2}]}`), http.StatusBadRequest, "Divers[1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body errorBody
			_ = json.NewDecoder(resp.Body).Decode(&body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d (%+v), want %d", resp.StatusCode, body, tc.status)
			}
			if body.Field != tc.field {
				t.Errorf("field %q, want %q (%s)", body.Field, tc.field, body.Error)
			}
		})
	}
}

// TestCreateRejectsNonFinite covers the values JSON cannot carry but a
// Go caller of CreateSession (or a restored snapshot) can: each is a
// field-named ConfigError, which the HTTP layer maps to 400.
func TestCreateRejectsNonFinite(t *testing.T) {
	srv := newBareServer(t)
	defer srv.Close()
	spec := func(edit func(*SessionSpec)) SessionSpec {
		s := SessionSpec{Env: "dock", Divers: []DiverSpec{{Z: 2}, {X: 6, Z: 2}, {X: 12, Y: 3, Z: 2}}}
		edit(&s)
		return s
	}
	cases := []struct {
		name  string
		spec  SessionSpec
		field string
	}{
		{"NaN x", spec(func(s *SessionSpec) { s.Divers[1].X = math.NaN() }), "Divers[1]"},
		{"+Inf y", spec(func(s *SessionSpec) { s.Divers[2].Y = math.Inf(1) }), "Divers[2]"},
		{"-Inf z", spec(func(s *SessionSpec) { s.Divers[0].Z = math.Inf(-1) }), "Divers[0]"},
		{"NaN pointing error", spec(func(s *SessionSpec) { s.PointingErrorRad = math.NaN() }), "PointingErrorRad"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := srv.CreateSession(tc.spec)
			var ce uwpos.ConfigError
			if !errors.As(err, &ce) || ce.Field != tc.field {
				t.Fatalf("err %v, want a ConfigError on %s", err, tc.field)
			}
			rec := httptest.NewRecorder()
			writeError(rec, err)
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.field) {
				t.Errorf("HTTP mapping: %d %s", rec.Code, rec.Body.String())
			}
		})
	}
}
