package channel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"uwpos/internal/dsp"
	"uwpos/internal/geom"
)

func TestSoundSpeedWilson(t *testing.T) {
	// At T=0, S=35, D=0 Wilson's equation gives exactly 1449.
	if c := SoundSpeed(0, 35, 0); math.Abs(c-1449) > 1e-9 {
		t.Errorf("c(0,35,0) = %g, want 1449", c)
	}
	// Warmer water is faster.
	if SoundSpeed(20, 35, 0) <= SoundSpeed(5, 35, 0) {
		t.Error("sound speed should increase with temperature")
	}
	// Deeper water is faster.
	if SoundSpeed(10, 35, 100) <= SoundSpeed(10, 35, 0) {
		t.Error("sound speed should increase with depth")
	}
	// Saltier water is faster.
	if SoundSpeed(10, 35, 0) <= SoundSpeed(10, 5, 0) {
		t.Error("sound speed should increase with salinity")
	}
	// Typical fresh lake water ~15°C: around 1465-1475 m/s.
	c := SoundSpeed(15, 0.3, 2)
	if c < 1400 || c > 1500 {
		t.Errorf("lake sound speed %g outside plausible range", c)
	}
}

func TestThorpAbsorptionMonotoneInBand(t *testing.T) {
	prev := 0.0
	for f := 500.0; f <= 20000; f *= 2 {
		a := ThorpAbsorptionDBPerKm(f)
		if a <= prev {
			t.Errorf("absorption not increasing at %g Hz: %g <= %g", f, a, prev)
		}
		prev = a
	}
	// Band-centre value should be well under 1 dB/km.
	if a := ThorpAbsorptionDBPerKm(3000); a > 1 {
		t.Errorf("3 kHz absorption %g dB/km unexpectedly high", a)
	}
}

func TestEnvironmentPresets(t *testing.T) {
	for _, name := range Presets() {
		env, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := env.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if env.Name != name {
			t.Errorf("preset %q reports name %q", name, env.Name)
		}
	}
	if _, err := ByName("atlantis"); err == nil {
		t.Error("unknown environment should error")
	}
}

func TestEnvironmentValidateRejects(t *testing.T) {
	bad := []*Environment{
		{BottomDepthM: 0},
		{BottomDepthM: 5, SurfaceLoss: 1.5},
		{BottomDepthM: 5, BottomLoss: -0.1},
		{BottomDepthM: 5, AmbientNoiseRMS: -1},
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestImpulseResponseDirectFirst(t *testing.T) {
	env := Dock()
	tx := geom.Vec3{X: 0, Y: 0, Z: 2.5}
	rx := geom.Vec3{X: 20, Y: 0, Z: 2.5}
	taps := env.ImpulseResponse(tx, rx, ImpulseOptions{})
	if len(taps) == 0 {
		t.Fatal("no taps")
	}
	if !taps[0].IsDirect() {
		t.Fatalf("first tap is not direct: %+v", taps[0])
	}
	// Direct delay should match distance / c.
	c := env.SoundSpeed(2.5)
	want := 20.0 / c
	if math.Abs(taps[0].DelaySec-want) > 1e-9 {
		t.Errorf("direct delay %g, want %g", taps[0].DelaySec, want)
	}
	// Direct tap should be the strongest.
	for _, tap := range taps[1:] {
		if math.Abs(tap.Amplitude) >= math.Abs(taps[0].Amplitude) {
			t.Errorf("reflection %+v stronger than direct", tap)
		}
	}
	// Delays must be sorted.
	for i := 1; i < len(taps); i++ {
		if taps[i].DelaySec < taps[i-1].DelaySec {
			t.Fatal("taps not sorted by delay")
		}
	}
}

func TestImpulseResponseSurfaceFlipsSign(t *testing.T) {
	env := Dock()
	tx := geom.Vec3{X: 0, Y: 0, Z: 1}
	rx := geom.Vec3{X: 10, Y: 0, Z: 1}
	taps := env.ImpulseResponse(tx, rx, ImpulseOptions{MaxOrder: 1})
	foundSurface := false
	for _, tap := range taps {
		if tap.Surface == 1 && tap.Bottom == 0 {
			foundSurface = true
			if tap.Amplitude >= 0 {
				t.Errorf("single surface bounce should be negative, got %g", tap.Amplitude)
			}
			// Path length must exceed the direct path.
			if tap.DelaySec <= taps[0].DelaySec {
				t.Error("surface bounce arrived before direct")
			}
		}
	}
	if !foundSurface {
		t.Fatal("no surface-only tap found")
	}
}

func TestImpulseResponseOcclusion(t *testing.T) {
	env := Dock()
	tx := geom.Vec3{X: 0, Y: 0, Z: 1.5}
	rx := geom.Vec3{X: 15, Y: 0, Z: 1.5}
	clear := env.ImpulseResponse(tx, rx, ImpulseOptions{})
	occ := env.ImpulseResponse(tx, rx, ImpulseOptions{DirectAttenuated: 0.05})
	if math.Abs(occ[0].Amplitude) > math.Abs(clear[0].Amplitude)*0.06 {
		t.Error("occlusion did not attenuate the direct path")
	}
	// With a strong occlusion the direct tap should no longer dominate.
	var maxAmp float64
	for _, tap := range occ {
		if a := math.Abs(tap.Amplitude); a > maxAmp {
			maxAmp = a
		}
	}
	if maxAmp == math.Abs(occ[0].Amplitude) {
		t.Error("expected a reflection to dominate under occlusion")
	}
}

func TestImpulseResponseShallowWaterDenser(t *testing.T) {
	// Shallow environments produce more significant taps within the same
	// delay spread window (the paper's viewpoint site).
	deep := Dock()
	shallow := Viewpoint()
	tx := geom.Vec3{X: 0, Y: 0, Z: 0.7}
	rx := geom.Vec3{X: 15, Y: 0, Z: 0.7}
	dt := deep.ImpulseResponse(tx, geom.Vec3{X: 15, Y: 0, Z: 4}, ImpulseOptions{MaxOrder: 3})
	st := shallow.ImpulseResponse(tx, rx, ImpulseOptions{MaxOrder: 3})
	// Count taps within 10 ms of the direct arrival.
	count := func(taps []Tap) int {
		n := 0
		for _, tap := range taps {
			if tap.DelaySec-taps[0].DelaySec < 0.010 && math.Abs(tap.Amplitude) > 0.001 {
				n++
			}
		}
		return n
	}
	if count(st) <= count(dt) {
		t.Errorf("shallow water (%d taps) should be denser than deep (%d)", count(st), count(dt))
	}
}

func TestTapHelpers(t *testing.T) {
	tap := Tap{DelaySec: 0.01, Amplitude: 0.5}
	if !tap.IsDirect() {
		t.Error("no-bounce tap should be direct")
	}
	if got := tap.PathLen(1500); math.Abs(got-15) > 1e-12 {
		t.Errorf("PathLen = %g", got)
	}
	if (Tap{Surface: 1}).IsDirect() {
		t.Error("bounced tap cannot be direct")
	}
}

func TestRenderPlacesDelayedCopy(t *testing.T) {
	const fs = 44100.0
	wave := []float64{1, 2, 3}
	dst := make([]float64, 2000)
	delay := 500.0 / fs // exactly 500 samples
	Render(dst, wave, []Tap{{DelaySec: delay, Amplitude: 2}}, 100, fs)
	// Peak of first sample's kernel lands at 100+500.
	if math.Abs(dst[600]-2) > 0.05 {
		t.Errorf("dst[600] = %g, want ~2", dst[600])
	}
	if math.Abs(dst[601]-4) > 0.1 {
		t.Errorf("dst[601] = %g, want ~4", dst[601])
	}
	// Energy far away must be negligible.
	if math.Abs(dst[1500]) > 1e-9 {
		t.Error("energy leaked far from the tap")
	}
}

func TestRenderFractionalDelaySubSample(t *testing.T) {
	// Two renders 0.4 samples apart: the cross-correlation peak between
	// them, parabolically interpolated, must sit at ~0.4 samples.
	const fs = 44100.0
	rng := rand.New(rand.NewSource(4))
	raw := make([]float64, 512)
	for i := range raw {
		raw[i] = rng.NormFloat64()
	}
	// Band-limit with a 9-sample moving average so the fractional-delay
	// kernel operates well inside its accurate band.
	wave := make([]float64, len(raw))
	for i := 4; i < len(raw)-4; i++ {
		var s float64
		for k := -4; k <= 4; k++ {
			s += raw[i+k]
		}
		wave[i] = s / 9
	}
	a := make([]float64, 1024)
	b := make([]float64, 1024)
	Render(a, wave, []Tap{{DelaySec: 300 / fs, Amplitude: 1}}, 0, fs)
	Render(b, wave, []Tap{{DelaySec: 300.4 / fs, Amplitude: 1}}, 0, fs)
	// Correlation of b against a at integer lags −2..2.
	corr := func(lag int) float64 {
		var s float64
		for i := 300; i < 900; i++ {
			if i+lag >= 0 && i+lag < len(b) {
				s += a[i] * b[i+lag]
			}
		}
		return s
	}
	rm, r0, rp := corr(1), corr(0), corr(-1) // b lags a, so peak near lag 0/-1
	// Parabolic vertex offset relative to lag 0 measured on the reversed
	// axis gives the sub-sample delay of b relative to a.
	den := rm - 2*r0 + rp
	if den == 0 {
		t.Fatal("flat correlation")
	}
	shift := -0.5 * (rm - rp) / den
	if math.Abs(shift-0.4) > 0.1 {
		t.Errorf("fractional shift %g, want 0.4", shift)
	}
}

func TestAddNoiseStatistics(t *testing.T) {
	env := Boathouse()
	rng := rand.New(rand.NewSource(7))
	dst := make([]float64, 44100)
	env.AddNoise(dst, 44100, rng)
	var e float64
	for _, v := range dst {
		e += v * v
	}
	rms := math.Sqrt(e / float64(len(dst)))
	// RMS should be at least the ambient level (impulses only add).
	if rms < env.AmbientNoiseRMS*0.9 {
		t.Errorf("noise RMS %g below ambient %g", rms, env.AmbientNoiseRMS)
	}
	// Impulsive bursts should create outliers well above Gaussian range.
	var maxAbs float64
	for _, v := range dst {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs < 6*env.AmbientNoiseRMS {
		t.Errorf("no impulsive outliers: max %g vs ambient %g", maxAbs, env.AmbientNoiseRMS)
	}
}

func TestScatterAddsTail(t *testing.T) {
	env := Dock()
	tx := geom.Vec3{X: 0, Y: 0, Z: 2}
	rx := geom.Vec3{X: 10, Y: 0, Z: 3}
	base := env.ImpulseResponse(tx, rx, ImpulseOptions{MaxOrder: 2})
	rng := rand.New(rand.NewSource(9))
	withTail := env.WithScatter(base, rng)
	if len(withTail) <= len(base) {
		t.Errorf("scatter added no taps: %d vs %d", len(withTail), len(base))
	}
	for i := 1; i < len(withTail); i++ {
		if withTail[i].DelaySec < withTail[i-1].DelaySec {
			t.Fatal("scattered taps not sorted")
		}
	}
	// Direct tap must remain first and unmodified.
	if !withTail[0].IsDirect() || withTail[0].Amplitude != base[0].Amplitude {
		t.Error("scatter altered the direct tap")
	}
}

func TestDirectDelayProperty(t *testing.T) {
	env := Dock()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tx := geom.Vec3{X: rng.Float64() * 40, Y: rng.Float64() * 40, Z: rng.Float64() * 8}
		rx := geom.Vec3{X: rng.Float64() * 40, Y: rng.Float64() * 40, Z: rng.Float64() * 8}
		d := env.DirectDelay(tx, rx)
		// Distance recovered from delay must match geometry within float eps.
		c := env.SoundSpeed((tx.Z + rx.Z) / 2)
		return math.Abs(d*c-tx.Dist(rx)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPoissonMeanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const lambda = 4.0
	var sum int
	const trials = 2000
	for i := 0; i < trials; i++ {
		sum += poisson(rng, lambda)
	}
	mean := float64(sum) / trials
	if math.Abs(mean-lambda) > 0.2 {
		t.Errorf("poisson mean %g, want ~%g", mean, lambda)
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Error("non-positive lambda should give 0")
	}
}

// Wave lengths the simulator renders: a ranging message (preamble plus
// ID fields) and an FSK report.
var renderWaveLens = []int{12260, 44100}

// renderDirect is the direct time-domain renderer Render replaced, kept
// as the oracle: for every tap it builds the 33-tap windowed-sinc kernel
// and adds the scaled, delayed wave sample by sample.
func renderDirect(dst, wave []float64, taps []Tap, txStart int, fs float64) {
	const half = kernelTaps / 2
	for _, tap := range taps {
		delay := tap.DelaySec * fs
		whole := int(math.Floor(delay))
		frac := delay - float64(whole)
		kern := dsp.FractionalDelayTaps(frac, kernelTaps)
		base := txStart + whole - half
		for i, v := range wave {
			if v == 0 {
				continue
			}
			sv := v * tap.Amplitude
			for k, kv := range kern {
				idx := base + i + k
				if idx < 0 || idx >= len(dst) {
					continue
				}
				dst[idx] += sv * kv
			}
		}
	}
}

func randomWave(n int, rng *rand.Rand) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	return w
}

// linkTaps draws a full channel realization between two random points,
// as the simulator does: image-method taps, a surface-jitter draw and
// the diffuse scatter tail.
func linkTaps(env *Environment, rng *rand.Rand) []Tap {
	tx := geom.Vec3{X: 0, Y: 0, Z: 0.5 + rng.Float64()*(env.BottomDepthM-1)}
	rx := geom.Vec3{X: 5 + 40*rng.Float64(), Y: 10 * rng.Float64(), Z: 0.5 + rng.Float64()*(env.BottomDepthM-1)}
	taps := env.ImpulseResponse(tx, rx, ImpulseOptions{})
	taps = env.DrawSurfaceJitter(rng, 3, tx.Dist(rx)).Apply(taps)
	return env.WithScatter(taps, rng)
}

// assertMatchesOracle renders taps with Render and with renderDirect on
// top of the same starting content and requires every sample to agree
// to 1e-9 of the oracle's peak magnitude.
func assertMatchesOracle(t *testing.T, dstLen int, wave []float64, taps []Tap, txStart int) {
	t.Helper()
	const fs = 44100.0
	base := randomWave(dstLen, rand.New(rand.NewSource(int64(dstLen))))
	want := append([]float64(nil), base...)
	got := append([]float64(nil), base...)
	renderDirect(want, wave, taps, txStart, fs)
	Render(got, wave, taps, txStart, fs)
	var peak, worst float64
	for i := range want {
		peak = max(peak, math.Abs(want[i]))
		worst = max(worst, math.Abs(got[i]-want[i]))
	}
	if worst > 1e-9*peak {
		t.Errorf("max error %.3g exceeds 1e-9 of peak %.3g", worst, peak)
	}
}

func TestRenderMatchesDirectOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, env := range []*Environment{Dock(), Boathouse()} {
		for _, n := range renderWaveLens {
			t.Run(fmt.Sprintf("%s/wave=%d", env.Name, n), func(t *testing.T) {
				wave := randomWave(n, rng)
				taps := linkTaps(env, rng)
				const fs = 44100.0
				start := 1000 + rng.Intn(3000)
				end := start + int(taps[len(taps)-1].DelaySec*fs) + n + kernelTaps
				assertMatchesOracle(t, end+500, wave, taps, start)
			})
		}
	}
}

func TestRenderEmptyTapsIsNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dst := randomWave(4000, rng)
	want := append([]float64(nil), dst...)
	Render(dst, randomWave(1000, rng), nil, 100, 44100)
	src := NewSource(randomWave(1000, rng), 0)
	src.Add(dst, nil)
	src.Release()
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("empty tap list changed dst[%d]", i)
		}
	}
}

func TestRenderClipsOutsideDst(t *testing.T) {
	const fs = 44100.0
	rng := rand.New(rand.NewSource(14))
	wave := randomWave(3000, rng)
	taps := []Tap{
		{DelaySec: 10.3 / fs, Amplitude: 0.8},
		{DelaySec: 2500.6 / fs, Amplitude: -0.4},
		{DelaySec: 7900.2 / fs, Amplitude: 0.3},
		{DelaySec: 20000.5 / fs, Amplitude: 0.2}, // lands wholly past dst
	}
	// Copies that start before index 0 and run past len(dst).
	assertMatchesOracle(t, 9000, wave, taps, -2000)
	// Every copy outside dst: nothing changes.
	assertMatchesOracle(t, 9000, wave, taps, 50000)
	assertMatchesOracle(t, 9000, wave, taps[:1], -4000)
}

// TestRenderIntegerDelays: at whole-sample delays the fractional-delay
// kernel is a unit impulse, so Render reduces to shift-and-scale — the
// nearest-sample placement the detection studies render with.
func TestRenderIntegerDelays(t *testing.T) {
	const fs = 44100.0
	rng := rand.New(rand.NewSource(5))
	wave := randomWave(256, rng)
	taps := []Tap{{DelaySec: 100 / fs, Amplitude: 0.7}, {DelaySec: 350 / fs, Amplitude: -0.3}}
	got := make([]float64, 2048)
	Render(got, wave, taps, 10, fs)
	want := make([]float64, 2048)
	for _, tap := range taps {
		shift := 10 + int(math.Round(tap.DelaySec*fs))
		for i, v := range wave {
			want[shift+i] += v * tap.Amplitude
		}
	}
	var peak, worst float64
	for i := range want {
		peak = max(peak, math.Abs(want[i]))
		worst = max(worst, math.Abs(got[i]-want[i]))
	}
	if worst > 1e-9*peak {
		t.Errorf("max error %.3g exceeds 1e-9 of peak %.3g", worst, peak)
	}
	assertMatchesOracle(t, 2048, wave, taps, 10)
}

// TestRenderSingleTapLoopback: the simulator's near-field loopback is one
// loud arrival at a fractional index.
func TestRenderSingleTapLoopback(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range renderWaveLens {
		wave := randomWave(n, rng)
		assertMatchesOracle(t, n+9000, wave, []Tap{{DelaySec: 4.37 / 44100, Amplitude: 0.9}}, 6000)
	}
}

// TestSourceWiderThanSpan: a Source sized for a narrow response still
// renders a wider one exactly, in several blocks.
func TestSourceWiderThanSpan(t *testing.T) {
	const fs = 44100.0
	rng := rand.New(rand.NewSource(16))
	wave := randomWave(2000, rng)
	taps := linkTaps(Dock(), rng)
	want := make([]float64, 20000)
	renderDirect(want, wave, taps, 300, fs)
	arr := make([]Arrival, len(taps))
	for i, tap := range taps {
		arr[i] = Arrival{Index: 300 + tap.DelaySec*fs, Amplitude: tap.Amplitude}
	}
	got := make([]float64, len(want))
	src := NewSource(wave, 10)
	src.Add(got, arr)
	src.Release()
	var peak, worst float64
	for i := range want {
		peak = max(peak, math.Abs(want[i]))
		worst = max(worst, math.Abs(got[i]-want[i]))
	}
	if worst > 1e-9*peak {
		t.Errorf("max error %.3g exceeds 1e-9 of peak %.3g", worst, peak)
	}
}

// TestSourceAddSteadyStateAllocs: once a Source holds its spectrum, each
// receiver render allocates nothing.
func TestSourceAddSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	wave := randomWave(12260, rng)
	taps := linkTaps(Dock(), rng)
	arr := make([]Arrival, len(taps))
	for i, tap := range taps {
		arr[i] = Arrival{Index: 500 + tap.DelaySec*44100, Amplitude: tap.Amplitude}
	}
	src := NewSource(wave, arr[len(arr)-1].Index-arr[0].Index)
	defer src.Release()
	dst := make([]float64, 60000)
	src.Add(dst, arr)
	if allocs := testing.AllocsPerRun(20, func() { src.Add(dst, arr) }); allocs != 0 {
		t.Fatalf("warm Source.Add allocates %.1f times per render, want 0", allocs)
	}
}

// BenchmarkChannelRender times one receiver-mic render through a dock
// channel (image taps, surface jitter and scatter tail) on a warm Source,
// and separately the once-per-transmission Source build.
func BenchmarkChannelRender(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	env := Dock()
	tx := geom.Vec3{X: 0, Y: 0, Z: 2}
	rx := geom.Vec3{X: 20, Y: 3, Z: 3}
	taps := env.ImpulseResponse(tx, rx, ImpulseOptions{})
	taps = env.DrawSurfaceJitter(rng, 3, tx.Dist(rx)).Apply(taps)
	taps = env.WithScatter(taps, rng)
	arr := make([]Arrival, len(taps))
	for i, tap := range taps {
		arr[i] = Arrival{Index: 1000 + tap.DelaySec*44100, Amplitude: tap.Amplitude}
	}
	span := arr[len(arr)-1].Index - arr[0].Index
	for _, n := range renderWaveLens {
		wave := randomWave(n, rng)
		dst := make([]float64, n+int(arr[len(arr)-1].Index)+kernelTaps)
		b.Run(fmt.Sprintf("wave=%d/add", n), func(b *testing.B) {
			src := NewSource(wave, span)
			defer src.Release()
			src.Add(dst, arr)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Add(dst, arr)
			}
		})
		b.Run(fmt.Sprintf("wave=%d/source", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewSource(wave, span).Release()
			}
		})
	}
}
