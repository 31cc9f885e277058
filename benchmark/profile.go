package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes, so CPU samples can be attributed to layers without a module
// dependency. It decodes exactly the fields the attribution needs:
//
//	Profile:  sample = 2, location = 4, function = 5, string_table = 6
//	Sample:   location_id = 1 (leaf first), value = 2
//	Location: id = 1, line = 4  (innermost inlined function first)
//	Line:     function_id = 1
//	Function: id = 1, name = 2  (string_table index)

var errProfile = errors.New("benchmark: malformed CPU profile")

// pbField is one decoded protobuf field: a varint (wire type 0) or a
// length-delimited payload (wire type 2).
type pbField struct {
	num  int
	wire int
	v    uint64
	data []byte
}

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProfile
}

// readField pops one field off b.
func readField(b []byte) (pbField, []byte, error) {
	key, b, err := readVarint(b)
	if err != nil {
		return pbField{}, nil, err
	}
	f := pbField{num: int(key >> 3), wire: int(key & 7)}
	switch f.wire {
	case 0:
		f.v, b, err = readVarint(b)
	case 1:
		if len(b) < 8 {
			return f, nil, errProfile
		}
		b = b[8:]
	case 2:
		var n uint64
		n, b, err = readVarint(b)
		if err == nil {
			if n > uint64(len(b)) {
				return f, nil, errProfile
			}
			f.data, b = b[:n], b[n:]
		}
	case 5:
		if len(b) < 4 {
			return f, nil, errProfile
		}
		b = b[4:]
	default:
		return f, nil, errProfile
	}
	return f, b, err
}

// repeatedVarints appends the values of a repeated integer field, packed or
// not.
func repeatedVarints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.data
	for len(b) > 0 {
		var v uint64
		var err error
		if v, b, err = readVarint(b); err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

type profSample struct {
	locs  []uint64
	value int64
}

// cpuShares decodes a CPU profile and returns each bucket's share of the
// sampled CPU time.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("benchmark: CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("benchmark: CPU profile: %w", err)
	}

	var samples []profSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string index
	var strs []string
	for b := raw; len(b) > 0; {
		var f pbField
		if f, b, err = readField(b); err != nil {
			return nil, err
		}
		switch f.num {
		case 2:
			var s profSample
			var vals []uint64
			for sb := f.data; len(sb) > 0; {
				var sf pbField
				if sf, sb, err = readField(sb); err != nil {
					return nil, err
				}
				switch sf.num {
				case 1:
					s.locs, err = repeatedVarints(s.locs, sf)
				case 2:
					vals, err = repeatedVarints(vals, sf)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(vals) > 0 {
				// Go's CPU profile has (samples/count, cpu/nanoseconds);
				// the last value is the time.
				s.value = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			for lb := f.data; len(lb) > 0; {
				var lf pbField
				if lf, lb, err = readField(lb); err != nil {
					return nil, err
				}
				switch lf.num {
				case 1:
					id = lf.v
				case 4:
					for nb := lf.data; len(nb) > 0; {
						var nf pbField
						if nf, nb, err = readField(nb); err != nil {
							return nil, err
						}
						if nf.num == 1 {
							fns = append(fns, nf.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5:
			var id, name uint64
			for fb := f.data; len(fb) > 0; {
				var ff pbField
				if ff, fb, err = readField(fb); err != nil {
					return nil, err
				}
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = ff.v
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
	}

	name := func(fn uint64) string {
		if i := funcName[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	total := int64(0)
	byBucket := map[string]int64{}
	for _, s := range samples {
		// Flatten the stack to function names, leaf first.
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				stack = append(stack, name(fn))
			}
		}
		byBucket[bucketOf(stack)] += s.value
		total += s.value
	}
	shares := map[string]float64{}
	if total > 0 {
		for k, v := range byBucket {
			shares[k] = float64(v) / float64(total)
		}
	}
	return shares, nil
}

const internalPrefix = "repro/internal/"

// bucketOf attributes one stack (leaf first). Time whose leaf is the Go
// runtime — garbage collection, allocation, map operations, memmove — is
// "runtime" whoever asked for it; anything else belongs to the innermost
// repro/internal/<pkg> frame, so math/big under a threshold-signature call
// counts as crypto.
func bucketOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	leaf := stack[0]
	if strings.HasPrefix(leaf, "runtime.") || strings.HasPrefix(leaf, "runtime/") ||
		strings.HasPrefix(leaf, "internal/runtime/") {
		return "runtime"
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "/."); i >= 0 {
			pkg = rest[:i]
		}
		for _, b := range cpuBuckets {
			if b == pkg {
				return pkg
			}
		}
		return "other" // node, byz, bench, sweep
	}
	return "other"
}
