package dsp

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestMatcherMatchesOneShotCorrelation: one matcher on both block
// sizings — two cached spectra, two block grids — matches the direct
// oracle on every lag.
func TestMatcherMatchesOneShotCorrelation(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for _, tc := range []struct{ nx, nh int }{
		{40, 7},     // short template
		{513, 100},  // odd stream length
		{2000, 200}, // several blocks
		{9000, 1024},
		{300, 300}, // equal lengths: single lag
	} {
		x := randReal(r, tc.nx)
		h := randReal(r, tc.nh)
		mt := NewMatcher(h)
		want := normalizedDirect(x, h)
		closeTo(t, "throughput bank", scan(NewMatcherBank(mt), x)[0], want, 1e-9)
		closeTo(t, "low-latency bank", scan(NewMatcherBankLowLatency(mt), x)[0], want, 1e-9)
	}
}

func TestMatcherEdgeCases(t *testing.T) {
	mt := NewMatcher([]float64{1, 2, 3})
	if mt.TemplateLen() != 3 || len(mt.Template()) != 3 {
		t.Errorf("template length %d/%d, want 3", mt.TemplateLen(), len(mt.Template()))
	}
	if got := scan(NewMatcherBank(mt), make([]float64, 8))[0]; len(got) != 6 {
		t.Errorf("zero stream gave %d lags, want 6", len(got))
	} else {
		for _, v := range got {
			if v != 0 {
				t.Errorf("zero-energy window gave %g, want 0", v)
			}
		}
	}
	// Zero-energy template: defined as all-zero output.
	zt := NewMatcher(make([]float64, 4))
	for _, v := range scan(NewMatcherBank(zt), randReal(rand.New(rand.NewSource(1)), 64))[0] {
		if v != 0 {
			t.Fatalf("zero template gave %g, want 0", v)
		}
	}
}

func TestMatcherTemplateIsACopy(t *testing.T) {
	h := []float64{1, 2, 3, 4}
	mt := NewMatcher(h)
	h[0] = 99
	if mt.Template()[0] != 1 {
		t.Fatal("matcher must copy the template at construction")
	}
}

// TestMatcherOverlapSaveMatchesOneShot: streams spanning many overlap-save
// blocks agree with the direct whole-stream correlation on every lag,
// including the zero-padded tail blocks.
func TestMatcherOverlapSaveMatchesOneShot(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	h := randReal(r, 256) // throughput block 2048, hop 1793
	b := NewMatcherBank(NewMatcher(h))
	for _, nx := range []int{6000, 8192, 20000, 65536 - 255} {
		x := randReal(r, nx)
		if blocks := (nx - len(h) + b.hop) / b.hop; blocks < 3 {
			t.Fatalf("nx=%d spans only %d blocks", nx, blocks)
		}
		closeTo(t, "blocked scan", scan(b, x)[0], normalizedDirect(x, h), 1e-9)
	}
}

// TestMatcherConcurrentUse shares one matcher across goroutines scanning
// at two block sizes at once; under -race this validates the spectrum
// cache's locking and the immutability of published spectra.
func TestMatcherConcurrentUse(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	mt := NewMatcher(randReal(r, 200))
	banks := []*MatcherBank{NewMatcherBank(mt), NewMatcherBankLowLatency(mt)}
	x := randReal(r, 4000)
	// Reference from a fresh matcher, so the shared one's caches are
	// first built under contention.
	fresh := NewMatcher(mt.Template())
	want := [][]float64{
		scan(NewMatcherBank(fresh), x)[0],
		scan(NewMatcherBankLowLatency(fresh), x)[0],
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(banks)
			if got := scan(banks[i], x)[0]; !slices.Equal(got, want[i]) {
				t.Errorf("goroutine %d: concurrent result diverged", g)
			}
		}(g)
	}
	wg.Wait()
}

func TestMatcherDeterministicAcrossCalls(t *testing.T) {
	// Same input must give bit-identical output on every session (the
	// engine's determinism contract relies on it).
	r := rand.New(rand.NewSource(34))
	x := randReal(r, 5000)
	b := NewMatcherBank(NewMatcher(randReal(r, 300)))
	sameBits(t, "second session", scan(b, x)[0], scan(b, x)[0])
}
