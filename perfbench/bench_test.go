package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"uwpos"
	"uwpos/internal/service"
)

// tinyScale keeps every fixed part of a run to its minimum: one set-up,
// one dock round, a few solve inputs, one single-round session.
var tinyScale = scale{setups: 1, roundPool: 1, solvePool: 16, serveScored: 1, serveRounds: 1}

// tinyRun runs one workload at tinyScale in a scratch checkout holding the
// repository's BENCHMARK.json, returning the result, the spec and the
// report of every value the run measured.
func tinyRun(t *testing.T, workload string, seed int64, trace bool) (*result, *benchSpec, map[string]float64) {
	t.Helper()
	root := t.TempDir()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	res, err := run(options{
		workload: workload, seed: seed, seconds: 0.2, trace: trace,
		root: root, commit: "test", scale: tinyScale,
	}, &out)
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s (trace=%v): correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	var report map[string]float64
	for _, line := range bytes.Split(out.Bytes(), []byte("\n")) {
		var l struct{ Report map[string]float64 }
		if json.Unmarshal(line, &l) == nil && l.Report != nil {
			report = l.Report
		}
	}
	if report == nil {
		t.Fatalf("%s (trace=%v): no report line in %q", workload, trace, out.String())
	}
	return res, spec, report
}

func metricNames(ms map[string]metricValue) []string {
	var names []string
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func TestTinyRunEmitsEveryMetric(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]bool{}
	for _, wl := range spec.Workloads {
		if testing.Short() && wl.Name != "solve" {
			continue // full-stack rounds take seconds each
		}
		for _, trace := range []bool{false, true} {
			res, spec, report := tinyRun(t, wl.Name, 1, trace)
			for name := range report {
				measured[name] = true
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !finite(got.Value) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a finite value in %s", wl.Name, trace, m.Name, got, m.Unit)
				}
			}
			if !trace {
				for _, m := range want {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
	if testing.Short() {
		return
	}
	// A per-layer metric reads 0 on a workload that does not exercise its
	// layer, but some workload must measure it.
	for _, m := range spec.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s is measured by no workload", m.Name)
		}
	}
}

func TestSeedChangesInputsNotMetricSet(t *testing.T) {
	if reflect.DeepEqual(genRoundPool(1, 6), genRoundPool(2, 6)) {
		t.Error("round pools of seeds 1 and 2 are equal")
	}
	if reflect.DeepEqual(genSolvePool(1, 40), genSolvePool(2, 40)) {
		t.Error("solve pools of seeds 1 and 2 are equal")
	}
	if reflect.DeepEqual(genServeSpec(1, 0), genServeSpec(2, 0)) {
		t.Error("serve sessions of seeds 1 and 2 are equal")
	}
	for _, trace := range []bool{false, true} {
		a, _, _ := tinyRun(t, "solve", 1, trace)
		b, _, _ := tinyRun(t, "solve", 2, trace)
		if !reflect.DeepEqual(metricNames(a.Metrics), metricNames(b.Metrics)) {
			t.Errorf("trace=%v: metric sets differ between seeds:\n%v\n%v", trace, metricNames(a.Metrics), metricNames(b.Metrics))
		}
	}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	if !reflect.DeepEqual(genRoundPool(7, 6), genRoundPool(7, 6)) {
		t.Error("round pool not deterministic")
	}
	if !reflect.DeepEqual(genSolvePool(7, 40), genSolvePool(7, 40)) {
		t.Error("solve pool not deterministic")
	}
	if !reflect.DeepEqual(genServeSpec(7, 3), genServeSpec(7, 3)) {
		t.Error("serve spec not deterministic")
	}
	// Item k depends on (seed, k) alone, so a larger pool extends a
	// smaller one.
	if !reflect.DeepEqual(genSolvePool(7, 16), genSolvePool(7, 40)[:16]) {
		t.Error("solve pool prefix changes with pool size")
	}
}

func TestGeneratedInputsAreValid(t *testing.T) {
	for _, d := range append(genRoundPool(3, 6), genServeSpec(3, 0)) {
		if _, err := newSystem(d); err != nil {
			t.Errorf("%s: %v", d.label(), err)
		}
		if d.label() != "dock4" && d.label() != "boathouse5" {
			t.Errorf("unexpected configuration %s/%d", d.env, len(d.divers))
		}
	}
	kinds := map[int]int{}
	for k, si := range genSolvePool(3, 80) {
		kinds[si.kind]++
		n := len(si.truth)
		if n < 4 || n > 8 || len(si.in.Distances) != n || si.in.Weights[0][1] == 0 {
			t.Errorf("input %d: N=%d, leader link weight %v", k, n, si.in.Weights[0][1])
		}
	}
	if kinds[kindOutlier] != 10 || kinds[kindMissing] != 20 || kinds[kindClean] != 50 {
		t.Errorf("kind shares %v, want 10 outlier / 20 missing / 50 clean in 80", kinds)
	}
}

func TestCheckersRejectInvalidOutputs(t *testing.T) {
	good := &uwpos.Result{Positions: []uwpos.Position{{Device: 1}, {Device: 0}, {Device: 2}}}
	if err := checkPositions(good, 3); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	for name, res := range map[string]*uwpos.Result{
		"missing device": {Positions: []uwpos.Position{{Device: 0}, {Device: 1}}},
		"repeated":       {Positions: []uwpos.Position{{Device: 0}, {Device: 1}, {Device: 1}}},
		"out of range":   {Positions: []uwpos.Position{{Device: 0}, {Device: 1}, {Device: 3}}},
		"NaN":            {Positions: []uwpos.Position{{Device: 0}, {Device: 1}, {Device: 2, Pos: uwpos.Vec3{Y: math.NaN()}}}},
		"bad drop":       {Positions: good.Positions, DroppedLinks: [][2]int{{1, 3}}},
	} {
		if checkPositions(res, 3) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	pos := []service.DevicePosition{{Device: 0}, {Device: 1}, {Device: 2}}
	if err := checkRoundReport(&service.RoundReport{Round: 2, Positions: pos}, 2, 3); err != nil {
		t.Errorf("valid round report rejected: %v", err)
	}
	if checkRoundReport(&service.RoundReport{Round: 1, Positions: pos}, 2, 3) == nil {
		t.Error("wrong round number accepted")
	}
	if checkRoundReport(&service.RoundReport{Round: 1}, 1, 3) == nil {
		t.Error("solved round without positions accepted")
	}
	if err := checkRoundReport(&service.RoundReport{Round: 1, Degraded: true, Reason: "round unsolved"}, 1, 3); err != nil {
		t.Errorf("degraded round before a first fix rejected: %v", err)
	}
	if checkTrackReport(&service.TrackReport{Rounds: 1, Positions: pos, Velocities: make([]float64, 3)}, 2, 3, true) == nil {
		t.Error("track with the wrong round count accepted")
	}
}

func TestModuleAttribution(t *testing.T) {
	for want, stack := range map[string][]string{
		"channel":       {"runtime.memmove", "uwpos/internal/channel.Render", "uwpos/internal/sim.(*Network).RunRound", "main.main"},
		"mds":           {"math.archHypot", "uwpos/internal/geom.Vec2.Dist", "uwpos/internal/mds.stressOf", "uwpos.Localize"},
		"gc":            {"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		"encoding_json": {"encoding/json.(*encodeState).marshal", "uwpos/internal/service.writeJSON", "net/http.(*conn).serve"},
		"bench":         {"encoding/json.(*decodeState).object", "main.(*serveWorkload).call"},
		"other":         {"runtime.futex", "runtime.findRunnable", "runtime.schedule"},
	} {
		if got := moduleOf(stack); got != want {
			t.Errorf("moduleOf(%v) = %s, want %s", stack, got, want)
		}
	}
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	x := 0.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	prof, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	samples, total := prof.byModule()
	if prof.periodNS <= 0 || total == 0 || samples["bench"] == 0 {
		t.Fatalf("period %d ns, %d samples, by module %v (x=%v)", prof.periodNS, total, samples, x)
	}
}

func TestLayersMapCoversEveryMetric(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var layers map[string]json.RawMessage
	if err := json.Unmarshal(data, &layers); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.PerLayer {
		if _, ok := layers[m.Name]; !ok {
			t.Errorf("layers.json has no entry for %s", m.Name)
		}
	}
}
