package channel

import (
	"math"
	"math/rand"
	"sort"

	"uwpos/internal/geom"
)

// Tap is one arrival of the channel impulse response.
type Tap struct {
	DelaySec  float64 // propagation delay in seconds
	Amplitude float64 // signed linear amplitude (surface bounces flip sign)
	Surface   int     // number of surface reflections on this eigenray
	Bottom    int     // number of bottom reflections on this eigenray
}

// PathLen returns the unfolded ray length in metres given the sound speed.
func (t Tap) PathLen(c float64) float64 { return t.DelaySec * c }

// IsDirect reports whether the tap is the line-of-sight arrival.
func (t Tap) IsDirect() bool { return t.Surface == 0 && t.Bottom == 0 }

// ImpulseOptions tunes impulse-response synthesis.
type ImpulseOptions struct {
	MaxOrder         int     // maximum reflection order per boundary (default 3)
	DirectAttenuated float64 // extra linear gain on the direct ray (1 = clear; <1 models occlusion)
	// OccludeShallow, when true, applies DirectAttenuated to every
	// eigenray that never touches the bottom (direct and surface-only
	// bounces): the paper's "thick solid sheet" hangs in the upper water
	// column, so only bottom-interacting paths sneak underneath — which
	// is precisely what turns an occlusion into a +several-metre distance
	// outlier rather than a mere SNR loss (§3.2, Fig. 19a).
	OccludeShallow bool
	RefAmplitude   float64 // amplitude of the direct ray at 1 m (default 1)
}

func (o *ImpulseOptions) defaults() {
	if o.MaxOrder <= 0 {
		o.MaxOrder = 3
	}
	if o.DirectAttenuated == 0 {
		o.DirectAttenuated = 1
	}
	if o.RefAmplitude == 0 {
		o.RefAmplitude = 1
	}
}

// ImpulseResponse constructs the eigenray tap set between tx and rx using
// the method of images for an isovelocity waveguide bounded by the water
// surface (pressure-release, reflection coefficient −SurfaceLoss) and the
// bottom (coefficient +BottomLoss). For each image order m ≥ 0 the four
// classical vertical unfoldings are
//
//	d₁ = 2hm + (z_r − z_s)        m surface + m bottom bounces
//	d₂ = 2hm + (z_r + z_s)        m+1 surface + m bottom (surface first)
//	d₃ = 2h(m+1) − (z_r + z_s)    m surface + m+1 bottom (bottom first)
//	d₄ = 2h(m+1) − (z_r − z_s)    m+1 surface + m+1 bottom
//
// Amplitudes follow 1/L spherical spreading with Thorp absorption at the
// band centre, times the per-bounce boundary coefficients.
func (e *Environment) ImpulseResponse(tx, rx geom.Vec3, opts ImpulseOptions) []Tap {
	opts.defaults()
	h := e.BottomDepthM
	r := tx.HorizontalDist(rx)
	zs, zr := clamp(tx.Z, 0, h), clamp(rx.Z, 0, h)
	cMid := e.SoundSpeed((zs + zr) / 2)
	absDBPerM := ThorpAbsorptionDBPerKm(3000) / 1000

	var taps []Tap
	add := func(dz float64, surf, bot int) {
		l := math.Hypot(r, dz)
		if l < 0.1 {
			l = 0.1 // avoid the singularity for co-located devices
		}
		amp := opts.RefAmplitude / l
		amp *= math.Pow(10, -absDBPerM*l/20)
		amp *= math.Pow(e.SurfaceLoss, float64(surf)) * math.Pow(e.BottomLoss, float64(bot))
		if surf%2 == 1 {
			amp = -amp // pressure-release surface flips polarity
		}
		if surf == 0 && bot == 0 {
			amp *= opts.DirectAttenuated
		} else if opts.OccludeShallow && bot == 0 {
			amp *= opts.DirectAttenuated // sheet also blocks surface-only rays
		}
		if math.Abs(amp) < 1e-6 {
			return
		}
		taps = append(taps, Tap{DelaySec: l / cMid, Amplitude: amp, Surface: surf, Bottom: bot})
	}

	for m := 0; m <= opts.MaxOrder; m++ {
		hm := 2 * h * float64(m)
		add(hm+(zr-zs), m, m)
		add(hm+(zr+zs), m+1, m)
		add(2*h*float64(m+1)-(zr+zs), m, m+1)
		add(2*h*float64(m+1)-(zr-zs), m+1, m+1)
	}
	sort.Slice(taps, func(i, j int) bool { return taps[i].DelaySec < taps[j].DelaySec })
	return taps
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// DirectDelay returns the line-of-sight propagation delay in seconds.
func (e *Environment) DirectDelay(tx, rx geom.Vec3) float64 {
	c := e.SoundSpeed((tx.Z + rx.Z) / 2)
	return tx.Dist(rx) / c
}

// scatterTaps appends a diffuse exponential tail after each boundary tap,
// modelling rough-surface scattering and suspended-particle reverberation.
// The tail density and level come from the environment.
func (e *Environment) scatterTaps(taps []Tap, rng *rand.Rand) []Tap {
	if e.ScatterLevel <= 0 || e.ScatterSpreadMs <= 0 || rng == nil {
		return taps
	}
	spread := e.ScatterSpreadMs / 1000
	out := taps
	for _, t := range taps {
		if t.IsDirect() {
			continue
		}
		// A handful of diffuse arrivals per specular bounce.
		n := 2 + rng.Intn(3)
		for k := 0; k < n; k++ {
			extra := rng.ExpFloat64() * spread
			amp := t.Amplitude * e.ScatterLevel * math.Exp(-extra/spread) * (0.5 + rng.Float64())
			out = append(out, Tap{
				DelaySec:  t.DelaySec + extra,
				Amplitude: amp,
				Surface:   t.Surface,
				Bottom:    t.Bottom,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DelaySec < out[j].DelaySec })
	return out
}

// AddNoise fills dst with the environment's ambient Gaussian noise plus
// Poisson-arriving impulsive bursts (bubbles, snapping shrimp, paddle
// strikes). The impulses are short decaying 2–4 kHz oscillations — exactly
// the "spiky noise" that defeats plain cross-correlation detection (§2.2.1).
func (e *Environment) AddNoise(dst []float64, fs float64, rng *rand.Rand) {
	for i := range dst {
		dst[i] += e.AmbientNoiseRMS * rng.NormFloat64()
	}
	if e.ImpulseRatePerS <= 0 || e.ImpulseAmplitude <= 0 {
		return
	}
	dur := float64(len(dst)) / fs
	n := poisson(rng, e.ImpulseRatePerS*dur)
	for k := 0; k < n; k++ {
		at := rng.Intn(len(dst))
		f := 2000 + 2000*rng.Float64()
		amp := e.ImpulseAmplitude * (0.5 + rng.Float64())
		decay := fs * (0.5e-3 + 2e-3*rng.Float64()) // 0.5–2.5 ms bursts
		for i := 0; i < int(4*decay); i++ {
			idx := at + i
			if idx >= len(dst) {
				break
			}
			t := float64(i)
			dst[idx] += amp * math.Exp(-t/decay) * math.Sin(2*math.Pi*f*t/fs)
		}
	}
}

func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	// Knuth's method is fine for the small rates involved.
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k
		}
	}
}

// WithScatter returns the impulse response with the environment's diffuse
// scattering tail appended (deterministic given rng).
func (e *Environment) WithScatter(taps []Tap, rng *rand.Rand) []Tap {
	return e.scatterTaps(taps, rng)
}

// SurfaceJitter is a per-transmission draw of wave-induced delay and gain
// modulation, keyed by eigenray family (surface, bottom bounce counts).
// Drawing once per transmission/receiver and applying it to every
// microphone keeps the dual-mic geometry coherent, as the real 16 cm
// baseline would be under a common wave field.
type SurfaceJitter map[[2]int]jitterDraw

type jitterDraw struct {
	delaySec float64
	gain     float64
}

// DrawSurfaceJitter samples the channel's random state for one
// transmission over a link of the given range: wave-induced delay/gain
// modulation per surface family, plus a log-normal fade on the direct ray
// whose σ grows linearly with range (refraction and shadowing — the
// paper's long tail at 35–45 m).
func (e *Environment) DrawSurfaceJitter(rng *rand.Rand, maxOrder int, rangeM float64) SurfaceJitter {
	if rng == nil || (e.SurfaceJitterMs <= 0 && e.FadeSigmaDBAt45m <= 0) {
		return nil
	}
	sigma := e.SurfaceJitterMs / 1000
	out := make(SurfaceJitter)
	for s := 0; s <= maxOrder+1; s++ {
		for b := 0; b <= maxOrder+1; b++ {
			if s == 0 {
				continue // waves only touch surface-interacting rays
			}
			out[[2]int{s, b}] = jitterDraw{
				delaySec: sigma * math.Sqrt(float64(s)) * rng.NormFloat64(),
				gain:     clamp(1+0.25*float64(s)*rng.NormFloat64(), 0.3, 1.7),
			}
		}
	}
	if e.FadeSigmaDBAt45m > 0 && rangeM > 0 {
		sigmaDB := e.FadeSigmaDBAt45m * rangeM / 45
		fade := math.Pow(10, sigmaDB*rng.NormFloat64()/20)
		out[[2]int{0, 0}] = jitterDraw{gain: clamp(fade, 0.05, 3)}
	}
	return out
}

// Apply perturbs the given taps in place according to the draw and
// re-sorts them by delay. Direct rays are untouched.
func (j SurfaceJitter) Apply(taps []Tap) []Tap {
	if j == nil {
		return taps
	}
	for i := range taps {
		d, ok := j[[2]int{taps[i].Surface, taps[i].Bottom}]
		if !ok {
			continue
		}
		taps[i].DelaySec += d.delaySec
		if taps[i].DelaySec < 0 {
			taps[i].DelaySec = 0
		}
		taps[i].Amplitude *= d.gain
	}
	sort.Slice(taps, func(a, b int) bool { return taps[a].DelaySec < taps[b].DelaySec })
	return taps
}
