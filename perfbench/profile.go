package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// internalPrefix marks the program's own modules in profile frame names.
const internalPrefix = "sqlbarber/internal/"

// moduleOf attributes one profile sample, given its frames innermost first.
// A sample under a datagen function or an engine.Open* call is the dataset
// build or its ANALYZE, whatever module it sits in, and goes to "datagen".
// Otherwise the innermost frame under sqlbarber/internal/<module> names the
// module, so math/rand, sort and malloc samples charge their caller.
// Samples with no such frame go to "runtime.gc" when the GC's background
// mark worker ran them, and to "other" otherwise (the benchmark's own code,
// net/http, the scheduler).
func moduleOf(frames []string) string {
	for _, fn := range frames {
		if strings.HasPrefix(fn, internalPrefix+"datagen.") || strings.HasPrefix(fn, internalPrefix+"engine.Open") {
			return "datagen"
		}
	}
	for _, fn := range frames {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
	}
	for _, fn := range frames {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") {
			return "runtime.gc"
		}
	}
	return "other"
}

// moduleShares decodes a runtime/pprof CPU profile and returns each
// module's share of the sampled CPU time.
func moduleShares(gz []byte) (map[string]float64, error) {
	samples, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	byModule := map[string]int64{}
	var total int64
	for _, s := range samples {
		byModule[moduleOf(s.frames)] += s.weight
		total += s.weight
	}
	shares := map[string]float64{}
	for m, w := range byModule {
		shares[m] = float64(w) / float64(total)
	}
	return shares, nil
}

type sample struct {
	frames []string // function names, innermost first
	weight int64    // sampled CPU nanoseconds
}

// decodeProfile reads the gzipped profile.proto that runtime/pprof writes.
// It keeps only what attribution needs: each sample's stack as function
// names and its last value (CPU nanoseconds for a CPU profile).
func decodeProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, wire, v, b)
				case 2:
					s.values = appendUints(s.values, wire, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && i < int64(len(strs)) {
					frames = append(frames, strs[i])
				}
			}
		}
		out = append(out, sample{frames: frames, weight: int64(s.values[len(s.values)-1])})
	}
	return out, nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed profile")

// eachField walks one protobuf message, calling fn with each field's number,
// wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}
