package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuModules are the buckets CPU samples are attributed to: the repo's
// modules beneath sim.RunRound and the service, the two standard-library
// layers the service adds, the garbage collector, the benchmark's own load
// generation, and everything else.
var cpuModules = []string{
	"channel", "ingest", "dsp", "ranging", "comm", "sig", "audio", "sim",
	"protocol", "core", "graph", "mds", "matrix", "track", "service",
	"net_http", "encoding_json", "gc", "bench", "other",
}

// benchPackage is the benchmark's import path, under which its symbols
// appear in test binaries; the command's own symbols appear as main.
const benchPackage = "uwpos/perfbench"

// gcFrames mark a stack as garbage-collector work wherever they appear.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.sweepone",
	"runtime._GC",
}

// moduleOf names the bucket of one stack, given leaf first: gc if any
// frame is collector work; otherwise the first frame, walking from the
// leaf, that belongs to a module of cpuModules, to net/http or
// encoding/json, or to the benchmark itself. Runtime, math and the repo's
// helper packages (geom, device, stats, the uwpos facade, …) are thereby
// charged to the module that called them.
func moduleOf(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		switch pkg := funcPackage(fn); {
		case pkg == benchPackage || pkg == "main":
			return "bench"
		case pkg == "net/http" || pkg == "encoding/json":
			if onClientSide(stack) {
				return "bench"
			}
			return strings.ReplaceAll(pkg, "/", "_")
		case strings.HasPrefix(pkg, "uwpos/internal/"):
			mod := strings.TrimPrefix(pkg, "uwpos/internal/")
			for _, m := range cpuModules {
				if m == mod {
					return m
				}
			}
		}
	}
	return "other"
}

// onClientSide reports whether an HTTP/JSON stack belongs to the
// benchmark's clients rather than to the served API.
func onClientSide(stack []string) bool {
	for _, fn := range stack {
		if pkg := funcPackage(fn); pkg == benchPackage || pkg == "main" || strings.HasPrefix(fn, "net/http.(*persistConn)") ||
			strings.HasPrefix(fn, "net/http.(*Transport)") {
			return true
		}
	}
	return false
}

// funcPackage returns the import path of a symbol such as
// "uwpos/internal/ingest.(*Pipeline).filter" or "net/http.(*conn).serve".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuProfile is the part of a pprof CPU profile the benchmark reads.
type cpuProfile struct {
	periodNS int64
	stacks   [][]string // leaf first, inlined frames expanded
	counts   []int64    // samples per stack
}

// parseCPUProfile decodes the gzipped protobuf runtime/pprof writes.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		strs      []string
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location → function IDs, leaf first
		funcNames = map[uint64]uint64{}   // function → string index
		prof      = &cpuProfile{}
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbUints(v, b, &s.locs)
				case 2:
					return pbUints(v, b, &s.vals)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		case 12:
			prof.periodNS = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	name := func(fn uint64) string {
		if i := funcNames[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return "?"
	}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				stack = append(stack, name(fn))
			}
		}
		prof.stacks = append(prof.stacks, stack)
		prof.counts = append(prof.counts, int64(s.vals[0]))
	}
	return prof, nil
}

// byModule sums samples per bucket.
func (p *cpuProfile) byModule() (samples map[string]int64, total int64) {
	samples = map[string]int64{}
	for i, st := range p.stacks {
		samples[moduleOf(st)] += p.counts[i]
		total += p.counts[i]
	}
	return samples, total
}

var errTruncated = errors.New("truncated protobuf")

// pbFields walks the fields of one protobuf message, handing fn the field
// number and either the varint value or the length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		field := int(key >> 3)
		var v uint64
		var sub []byte
		switch key & 7 {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(field, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated varint field in either encoding: packed (the
// bytes hold the values) or one value per field occurrence.
func pbUints(v uint64, b []byte, out *[]uint64) error {
	if b == nil {
		*out = append(*out, v)
		return nil
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		*out = append(*out, x)
		b = b[n:]
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
