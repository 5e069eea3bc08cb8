package dsp

import (
	"slices"
	"testing"
)

// FuzzBankStreamChunking fuzzes signal content and chunk-split points
// against two references: the direct sliding-window oracle (rounding-
// level tolerance) and the single-chunk session (bit-exact — same
// absolute block grid by construction). The template is the stream's own
// prefix so the fuzzer controls correlation structure (plateaus, exact
// ties, constants) directly through the input bytes.
func FuzzBankStreamChunking(f *testing.F) {
	f.Add([]byte{7, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(append([]byte{40, 5}, make([]byte, 400)...)) // constant signal: all-tie plateaus
	seed := []byte{90, 200}
	for i := 0; i < 300; i++ {
		seed = append(seed, byte(i*37), byte(255-i))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 16 {
			t.Skip()
		}
		header, body := data[:2], data[2:]
		x := make([]float64, len(body))
		for i, b := range body {
			x[i] = (float64(b) - 128) / 128
		}
		hlen := 1 + int(header[0])%(len(x)/2)
		b := NewMatcherBankLowLatency(NewMatcher(x[:hlen]))

		ref := scan(b, x)[0]
		closeTo(t, "one chunk vs direct", ref, normalizedDirect(x, x[:hlen]), 1e-9)

		// Chunk boundaries straight from the fuzz input: up to 7 cuts.
		nc := int(header[1]) % 8
		cuts := make([]int, 0, nc)
		for k := 0; k < nc && k < len(body); k++ {
			cuts = append(cuts, int(body[k])*len(x)/256)
		}
		slices.Sort(cuts)
		sameBits(t, "chunked", feedPartition(b.Stream(), x, cuts)[0], ref)
	})
}
