package dsp

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func bankOf(r *rand.Rand, lens ...int) *MatcherBank {
	ms := make([]*Matcher, len(lens))
	for i, n := range lens {
		ms[i] = NewMatcher(randReal(r, n))
	}
	return NewMatcherBank(ms...)
}

// xcorrDirect is the O(len(x)·len(h)) sliding dot product
// r[k] = Σ_n x[n+k]·h[n] over the valid lags: the oracle for the FFT scan.
func xcorrDirect(x, h []float64) []float64 {
	if len(h) == 0 || len(h) > len(x) {
		return nil
	}
	out := make([]float64, len(x)-len(h)+1)
	for k := range out {
		var s float64
		for n, hv := range h {
			s += x[k+n] * hv
		}
		out[k] = s
	}
	return out
}

// normalizedDirect is BankStream's contract computed directly: each lag
// of xcorrDirect divided by sqrt(window energy · template energy), each
// window energy summed afresh, and 0 where that product is (near) zero.
func normalizedDirect(x, h []float64) []float64 {
	out := xcorrDirect(x, h)
	var eh float64
	for _, v := range h {
		eh += v * v
	}
	for k := range out {
		var ex float64
		for _, v := range x[k : k+len(h)] {
			ex += v * v
		}
		if den := math.Sqrt(ex * eh); den < 1e-30 {
			out[k] = 0
		} else {
			out[k] /= den
		}
	}
	return out
}

// feedPartition drives a session over an arbitrary chunk partition of x
// and returns each template's concatenated output lags.
func feedPartition(s *BankStream, x []float64, cuts []int) [][]float64 {
	out := make([][]float64, s.bank.Len())
	collect := func(rows [][]float64) {
		for i, row := range rows {
			out[i] = append(out[i], row...)
		}
	}
	prev := 0
	for _, c := range cuts {
		collect(s.Feed(x[prev:c]))
		prev = c
	}
	collect(s.Feed(x[prev:]))
	collect(s.Flush())
	return out
}

// scan is the one-shot use of a bank: the whole stream in one Feed.
func scan(b *MatcherBank, x []float64) [][]float64 { return feedPartition(b.Stream(), x, nil) }

// scanOne correlates one template against x on a single-template
// low-latency session, the streaming detector's shape.
func scanOne(h, x []float64) []float64 { return scan(NewMatcherBankLowLatency(NewMatcher(h)), x)[0] }

// randomCuts draws a sorted set of chunk boundaries in [0, n], including
// degenerate empty chunks with some probability.
func randomCuts(r *rand.Rand, n int) []int {
	k := r.Intn(8)
	cuts := make([]int, 0, k)
	for i := 0; i < k; i++ {
		cuts = append(cuts, r.Intn(n+1))
	}
	slices.Sort(cuts)
	return cuts
}

// closeTo fails t unless got matches want within tol per lag.
func closeTo(t *testing.T, what string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lags, want %d", what, len(got), len(want))
	}
	for k := range want {
		if math.Abs(got[k]-want[k]) > tol {
			t.Fatalf("%s: lag %d: %g vs %g", what, k, got[k], want[k])
		}
	}
}

// sameBits fails t unless got equals want bit for bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lags, want %d", what, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s: lag %d not bit-identical: %v vs %v", what, k, got[k], want[k])
		}
	}
}

// TestMatcherBankMatchesSingleScans checks the shared-forward-FFT bank
// scan against each member template scanned alone on its own block grid
// and against the direct oracle.
func TestMatcherBankMatchesSingleScans(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	for _, lens := range [][]int{
		{256, 256, 256},
		{2048, 1000, 300},
		{100, 9840, 2048},
		{700},
	} {
		b := bankOf(r, lens...)
		for _, nx := range []int{12000, 40000} {
			x := randReal(r, nx)
			got := scan(b, x)
			for i := 0; i < b.Len(); i++ {
				h := b.Matcher(i).Template()
				closeTo(t, "vs single scan", got[i], scanOne(h, x), 1e-9)
				if nx == 12000 {
					closeTo(t, "vs direct", got[i], normalizedDirect(x, h), 1e-9)
				}
			}
		}
	}
}

// TestBankStreamMatchesOneShot checks the streaming session is
// bit-identical to one whole-stream Feed for arbitrary chunk partitions
// — both run the same absolute block grid.
func TestBankStreamMatchesOneShot(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	b := bankOf(r, 512, 2000, 128)
	for _, nx := range []int{500, 5000, 30000} {
		x := randReal(r, nx)
		want := scan(b, x)
		for trial := 0; trial < 8; trial++ {
			got := feedPartition(b.Stream(), x, randomCuts(r, nx))
			for i := range want {
				sameBits(t, "partitioned stream", got[i], want[i])
			}
		}
	}
}

// TestBankStreamBoundedState: a Feed far larger than a block is consumed
// one block at a time, so the session's sample buffer never outgrows the
// block and the prefix window keeps its size, with output bit-identical
// to any other partition.
func TestBankStreamBoundedState(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	b := bankOf(r, 300, 900)
	x := randReal(r, 30*b.block)
	s := b.Stream()
	preCap := cap(s.pre)
	rows := s.Feed(x)
	got := make([][]float64, b.Len())
	for i, row := range rows {
		got[i] = append(got[i], row...)
	}
	if cap(s.buf) > b.block || cap(s.pre) != preCap {
		t.Fatalf("one large Feed grew session state: cap(buf) %d (block %d), cap(pre) %d -> %d",
			cap(s.buf), b.block, preCap, cap(s.pre))
	}
	for i, row := range s.Flush() {
		got[i] = append(got[i], row...)
	}
	want := feedPartition(b.Stream(), x, randomCuts(r, len(x)))
	for i := range want {
		sameBits(t, "one large Feed vs random partition", got[i], want[i])
	}
}

func TestMatcherBankShortStream(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	b := bankOf(r, 100, 400)
	x := randReal(r, 200) // long enough for template 0 only
	s := b.Stream()
	s.Feed(x)
	rows := s.Flush()
	if len(rows[0]) != 101 || len(rows[1]) != 0 {
		t.Fatalf("stream rows %d/%d, want 101/0", len(rows[0]), len(rows[1]))
	}
}

func TestMatcherBankPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty bank":     func() { NewMatcherBank() },
		"empty template": func() { NewMatcherBank(NewMatcher(nil)) },
		"flush twice": func() {
			s := NewMatcherBank(NewMatcher([]float64{1})).Stream()
			s.Flush()
			s.Flush()
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestMatcherBankConcurrentSessions is the engine-worker shape: one
// shared bank (shared cached template spectra), one independent session
// per goroutine, half fed whole and half in odd-sized chunks. Run under
// -race in CI.
func TestMatcherBankConcurrentSessions(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	b := bankOf(r, 300, 900, 128)
	x := randReal(r, 20000)
	want := scan(b, x)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var cuts []int
			if g%2 == 1 {
				for off := 1000 + 37*g; off < len(x); off += 1000 + 37*g {
					cuts = append(cuts, off)
				}
			}
			got := feedPartition(b.Stream(), x, cuts)
			for i := range got {
				if !slices.Equal(got[i], want[i]) {
					t.Errorf("session %d diverged on template %d", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStreamMatcherEquivalence: a streaming matched filter — a
// single-template low-latency session — over randomized chunk partitions
// (sizes from 0 to whole-stream, boundaries anywhere, including inside
// the template span of a lag) matches the direct oracle within 1e-9 per
// lag, and is bit-identical to the single-chunk feed.
func TestStreamMatcherEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	for _, tc := range []struct{ nx, nh int }{
		{500, 64},
		{2000, 200},
		{9000, 1024},
		{40000, 1024}, // many blocks
		{300, 300},    // single lag
		{1000, 999},
	} {
		x := randReal(r, tc.nx)
		h := randReal(r, tc.nh)
		b := NewMatcherBankLowLatency(NewMatcher(h))
		oneChunk := scan(b, x)[0]
		closeTo(t, "one chunk vs direct", oneChunk, normalizedDirect(x, h), 1e-9)
		for trial := 0; trial < 10; trial++ {
			sameBits(t, "partitioned", feedPartition(b.Stream(), x, randomCuts(r, tc.nx))[0], oneChunk)
		}
	}
}

// TestStreamMatcherSampleBySample feeds one sample at a time — the most
// adversarial partition — against the direct oracle.
func TestStreamMatcherSampleBySample(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	x := randReal(r, 1200)
	h := randReal(r, 100)
	cuts := make([]int, len(x))
	for i := range cuts {
		cuts[i] = i
	}
	got := feedPartition(NewMatcherBankLowLatency(NewMatcher(h)).Stream(), x, cuts)[0]
	closeTo(t, "sample by sample", got, normalizedDirect(x, h), 1e-9)
}

func TestStreamMatcherShortStream(t *testing.T) {
	b := NewMatcherBankLowLatency(NewMatcher(randReal(rand.New(rand.NewSource(42)), 128)))
	s := b.Stream()
	if got := s.Feed(make([]float64, 64))[0]; len(got) != 0 {
		t.Fatalf("emitted %d lags before the template span filled", len(got))
	}
	if got := s.Flush()[0]; len(got) != 0 {
		t.Fatalf("stream shorter than template flushed %d lags, want 0", len(got))
	}
	// Exactly template length: one lag.
	s2 := b.Stream()
	s2.Feed(randReal(rand.New(rand.NewSource(43)), 128))
	if got := s2.Flush()[0]; len(got) != 1 {
		t.Fatalf("template-length stream flushed %d lags, want 1", len(got))
	}
}

func TestStreamMatcherFeedAfterFlushPanics(t *testing.T) {
	s := NewMatcherBankLowLatency(NewMatcher([]float64{1, 2, 3})).Stream()
	s.Flush()
	defer func() {
		if recover() == nil {
			t.Fatal("Feed after Flush must panic")
		}
	}()
	s.Feed([]float64{1})
}

// BenchmarkMatcherBank3 scans a 2 s stream for three preamble-scale
// templates in one bank pass (one Feed, then Flush): one shared forward
// transform per block feeds all three.
func BenchmarkMatcherBank3(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randReal(r, 88200)
	bank := bankOf(r, 9840, 9840, 2048)
	scan(bank, x) // warm spectra
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := bank.Stream()
		s.Feed(x)
		s.Flush()
	}
}

// BenchmarkBankStream measures the detector's shape: a 2 s stream in
// 4096-sample buffers against the preamble-length template on a
// low-latency single-template session.
func BenchmarkBankStream(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randReal(r, 88200)
	bank := NewMatcherBankLowLatency(NewMatcher(randReal(r, 9840)))
	scan(bank, x) // warm the spectrum cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := bank.Stream()
		for off := 0; off < len(x); off += 4096 {
			s.Feed(x[off:min(off+4096, len(x))])
		}
		s.Flush()
	}
}
