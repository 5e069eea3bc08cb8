// Command perfbench is the uwpos benchmark. It runs one workload through
// the public entry points for a fixed time, validates every output, and
// prints the metrics named in BENCHMARK.json, each with its unit, as one
// JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload round --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json and perfbench/layers.json):
//
//	round  full simulated group rounds (uwpos.NewSystem + System.Locate)
//	solve  uwpos.Localize + GroupTracker.AddRound on measurement sets
//	serve  uwposd's HTTP API served in-process, closed-loop clients
//
// With --trace 0 the run measures untraced and reports the end-to-end
// metrics. With --trace 1 it measures an untraced phase and then a traced
// phase (spans around every public call plus a CPU profile) of half the
// time each, and reports the per-layer metrics. The program's RNG-fixed
// accuracy outputs must agree bit for bit between passes, between the two
// phases, and with any earlier run of the same seed and source; a mismatch
// or an invalid output makes the run incorrect and the exit code 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// scale fixes the work of a run that does not depend on its duration.
type scale struct {
	setups      int // set-ups of an untraced run; setup_s is their median
	roundPool   int // round deployments per pass
	solvePool   int // solve measurement sets per pass
	serveScored int // sessions that always run all their rounds
	serveRounds int // rounds per session
}

var fullScale = scale{setups: 3, roundPool: 8, solvePool: 240, serveScored: 4, serveRounds: 2}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root: BENCHMARK.json, sources, .bench_build
	commit   string
	scale    scale
}

// workload is one traffic mix. setup generates the inputs from the seed,
// builds the program objects and runs one untimed warm-up op; measure runs
// ops until the deadline has passed and the scored set is complete.
type workload interface {
	setup(ctx context.Context, seed int64) error
	measure(ctx context.Context, deadline time.Time, rec *recorder) error
	close()
}

// runDeadline keeps a hung op from outliving the 180 s a run may take.
const runDeadline = 170 * time.Second

func main() {
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res) // maps of floats and plain structs
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	opt := options{scale: fullScale}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&opt.workload, "workload", "", "round, solve or serve")
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed")
	fs.Float64Var(&opt.seconds, "seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&opt.root, "root", ".", "checkout root")
	fs.StringVar(&opt.commit, "commit", "none", "git commit of the checkout, if known")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if *trace != 0 && *trace != 1 {
		return opt, fmt.Errorf("--trace must be 0 or 1")
	}
	if opt.seconds <= 0 {
		return opt, fmt.Errorf("--seconds must be positive")
	}
	opt.trace = *trace == 1
	return opt, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newWorkload(opt options, tmp string) (workload, error) {
	switch opt.workload {
	case "round":
		return &roundWorkload{poolSize: opt.scale.roundPool}, nil
	case "solve":
		return &solveWorkload{poolSize: opt.scale.solvePool}, nil
	case "serve":
		return &serveWorkload{
			clients: runtime.NumCPU(), rounds: opt.scale.serveRounds,
			scored: opt.scale.serveScored, tmpRoot: tmp,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want round, solve or serve)", opt.workload)
}

// run performs one benchmark run, writing provenance and a report of every
// measured value to out, and returns the result line.
func run(opt options, out io.Writer) (*result, error) {
	spec, err := loadSpec(filepath.Join(opt.root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	outDir := filepath.Join(opt.root, ".bench_build", "out")
	tmp := filepath.Join(opt.root, ".bench_build", "tmp")
	for _, d := range []string{outDir, tmp} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	prov, err := provenance(opt)
	if err != nil {
		return nil, err
	}
	if err := writeLine(out, "provenance", prov); err != nil {
		return nil, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	w, err := newWorkload(opt, tmp)
	if err != nil {
		return nil, err
	}
	defer w.close()

	setups := opt.scale.setups
	if opt.trace {
		setups = 1
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		w.close()
		t := time.Now()
		if err := w.setup(ctx, opt.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	phase := func(d time.Duration, tracing bool) (*recorder, error) {
		rec := newRecorder(tracing)
		return rec, w.measure(ctx, rec.t0.Add(d), rec)
	}

	vals := map[string]float64{}
	measured := time.Duration(opt.seconds * float64(time.Second))
	var a, b *recorder
	if !opt.trace {
		if a, err = phase(measured, false); err != nil {
			return nil, err
		}
		vals["setup_s"] = median(setupS)
		vals["rss_peak_mb"], err = peakRSSMB()
		if err != nil {
			return nil, err
		}
	} else {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if a, err = phase(measured/2, false); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m1)
		ops := a.done
		vals["mem.alloc_mb_per_op"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1e6, ops)
		vals["mem.allocs_per_op"] = ratio(float64(m1.Mallocs-m0.Mallocs), ops)
		vals["mem.gc_per_op"] = ratio(float64(m1.NumGC-m0.NumGC), ops)

		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		b, err = phase(measured/2, true)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		if err := traceMetrics(vals, a, b, prof.Bytes(), outDir, opt); err != nil {
			return nil, err
		}
	}

	res := &result{Metrics: map[string]metricValue{}}
	var errs []string
	for _, r := range []*recorder{a, b} {
		if r == nil {
			continue
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		errs = append(errs, r.errs...)
	}
	if b != nil && !sameValues(a.acc, b.acc) {
		res.Failed++
		errs = append(errs, fmt.Sprintf("determinism: traced run accuracy %v differs from untraced %v", b.acc, a.acc))
	}
	if err := checkRepeat(outDir, opt, prov.SourceSHA, a.acc); err != nil {
		res.Failed++
		errs = append(errs, err.Error())
	}
	for k, v := range a.acc {
		vals[k] = v
	}
	for k, v := range a.counts {
		vals[k] = v
	}
	if b != nil {
		for k, v := range b.counts {
			vals[k] = v
		}
	}
	vals["rounds_per_s"] = a.roundsPerSec()
	vals["round_ms_p50"] = median(a.lat)
	vals["round_ms_p99"] = quantile(a.lat, 0.99)
	vals["fail_frac"] = ratio(float64(res.Failed), res.Attempted)
	vals["ops"] = float64(a.done)
	if err := writeLine(out, "report", vals); err != nil {
		return nil, err
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", e)
	}

	metrics := spec.EndToEnd
	if opt.trace {
		metrics = spec.PerLayer
	}
	for _, m := range metrics {
		v, ok := vals[m.Name]
		if !ok {
			v = 0 // a layer this workload does not exercise
			if !opt.trace {
				return nil, fmt.Errorf("workload %s measured no %s", opt.workload, m.Name)
			}
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if res.Attempted == 0 {
		res.Attempted = 1 // the contract counts at least one attempt; the run is incorrect
		res.Failed = 1
	}
	return res, nil
}

// traceMetrics derives the per-layer metrics of a traced run: span
// medians, CPU self time per module and op, and the tracing overhead. It
// writes the spans and the raw profile to outDir.
func traceMetrics(vals map[string]float64, a, b *recorder, profile []byte, outDir string, opt options) error {
	for name, span := range map[string]string{
		"round.dock4.locate_ms_p50":      "round.dock4.locate",
		"round.boathouse5.locate_ms_p50": "round.boathouse5.locate",
		"solve.clean_ms_p50":             "solve.clean",
		"solve.outlier_ms_p50":           "solve.outlier",
		"solve.missing_ms_p50":           "solve.missing",
		"service.create_ms_p50":          "service.create",
		"service.track_ms_p50":           "service.track",
		"service.delete_ms_p50":          "service.delete",
	} {
		vals[name] = b.spanP50(span)
	}
	vals["track.add_round_us_p50"] = 1000 * b.spanP50("track.add_round")
	if pa := median(a.lat); pa > 0 {
		vals["trace.overhead_frac"] = median(b.lat)/pa - 1
	}

	prof, err := parseCPUProfile(profile)
	if err != nil {
		return err
	}
	samples, total := prof.byModule()
	for _, m := range cpuModules {
		vals["cpu."+m+"_ms"] = ratio(float64(samples[m]*prof.periodNS)/1e6, b.done)
	}
	if total > 0 {
		vals["cpu.covered_frac"] = 1 - float64(samples["other"])/float64(total)
	}
	vals["cpu.samples"] = float64(total)

	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", opt.workload, opt.seed))
	if err := os.WriteFile(base+".cpu.pprof", profile, 0o644); err != nil {
		return err
	}
	return writeSpans(base+".spans.jsonl", b.spans)
}

func writeSpans(path string, spans []span) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func writeLine(out io.Writer, key string, v any) error {
	line, err := json.Marshal(map[string]any{key: v})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

func sameValues(x, y map[string]float64) bool {
	if len(x) != len(y) {
		return false
	}
	for k, v := range x {
		if w, ok := y[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// checkRepeat compares a run's RNG-determined metrics with those of an
// earlier run of the same workload, seed and source tree in this checkout,
// and records them for later runs.
func checkRepeat(outDir string, opt options, source string, acc map[string]float64) error {
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-%.12s.accuracy.json", opt.workload, opt.seed, source))
	if prev, err := os.ReadFile(path); err == nil {
		var want map[string]float64
		if err := json.Unmarshal(prev, &want); err != nil {
			return fmt.Errorf("determinism record %s: %w", path, err)
		}
		if !sameValues(want, acc) {
			return fmt.Errorf("determinism: accuracy %v differs from an earlier run of this seed (%v)", acc, want)
		}
		return nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	data, err := json.Marshal(acc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
