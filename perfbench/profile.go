package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run takes a host CPU profile with runtime/pprof and folds its
// samples into the simulator's layers. The module uses only the standard
// library, which can write a profile but not read one, so this file decodes
// the few profile.proto fields the fold needs.

// stackSample is one profile sample: its stack of function names, leaf
// first (inlined frames included), and its CPU time in nanoseconds.
type stackSample struct {
	funcs []string
	value int64
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// parseProfile decodes a gzipped pprof CPU profile.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocationID:
					return appendPacked(&s.locs, v, b)
				case sampleValue:
					return appendPacked(&s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case profFunction:
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stackSample{value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if ix := funcNames[fn]; ix < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[ix])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling f with each field's number
// and either its varint value (wire type 0) or its bytes (wire type 2).
// Fixed-width fields are skipped; profile.proto uses none the fold reads.
func eachField(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which an encoder may write
// either one value at a time (b nil) or packed into one byte string.
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layers are the simulator modules that get a cpu_share metric. Other
// kleb/internal packages (ktime, isa, monitor, fault, trace, experiments)
// are helpers: a sample inside one is charged to the nearest layer that
// called it.
var layers = []string{
	"workload", "session", "machine", "kernel", "cpu", "cache", "branch",
	"pmu", "kleb", "tools", "telemetry", "fleet",
}

const internalPrefix = "kleb/internal/"

// layerOf returns the layer a sample is charged to: the innermost frame in
// a layer package; "runtime" for stacks made only of Go runtime frames (GC
// workers, the scheduler); "" for the benchmark's own code.
func layerOf(funcs []string) string {
	for _, fn := range funcs {
		if !strings.HasPrefix(fn, internalPrefix) {
			continue
		}
		pkg := fn[len(internalPrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range layers {
			if pkg == l {
				return l
			}
		}
	}
	for _, fn := range funcs {
		if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "runtime/") {
			return ""
		}
	}
	if len(funcs) == 0 {
		return ""
	}
	return "runtime"
}

// bracketFuncs are the cost memo's measurement bracket: the cache state
// snapshot and rewind around each canonical measurement, and the pre-warm
// that runs inside it.
var bracketFuncs = []string{
	"kleb/internal/cache.(*Cache).Save",
	"kleb/internal/cache.(*Cache).Restore",
	"kleb/internal/cpu.preWarm",
}

// inBracket reports whether any frame of the stack is in the bracket.
func inBracket(funcs []string) bool {
	for _, fn := range funcs {
		for _, b := range bracketFuncs {
			if fn == b {
				return true
			}
		}
	}
	return false
}

// layerShares folds samples into the share of CPU time charged to each
// layer, plus "bracket" for samples inside the memo's bracket.
func layerShares(samples []stackSample) map[string]float64 {
	var total int64
	by := map[string]int64{}
	for _, s := range samples {
		total += s.value
		if l := layerOf(s.funcs); l != "" {
			by[l] += s.value
		}
		if inBracket(s.funcs) {
			by["bracket"] += s.value
		}
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for l, v := range by {
		out[l] = float64(v) / float64(total)
	}
	return out
}
