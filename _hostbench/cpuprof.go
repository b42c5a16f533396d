package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// CPU self-time by module. Each profile sample is charged to the
// innermost frame that belongs to a repo package; runtime and standard
// library frames (chanrecv, futex, memmove, mallocgc, fmt, ...) go to
// their nearest repo caller. Samples of the garbage collector go to
// runtime.gc; samples with no repo frame at all (the goroutine
// scheduler running on its own stack between process hand-offs) go to
// runtime. The benchmark's own code (package main) is bench.

// cpuModules are the layers reported as <module>.cpu_frac; any other
// repo package is folded into "other".
var cpuModules = []string{"sim", "noc", "dtu", "mem", "tile", "core", "m3", "m3fs", "kif", "obs", "workload", "other"}

const (
	bucketGC      = "runtime.gc"
	bucketRuntime = "runtime"
	bucketBench   = "bench"
	repoPrefix    = "repro/internal/"
)

// attributeProfile decodes a runtime/pprof CPU profile and returns its
// sample count per bucket.
func attributeProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				frames = append(frames, p.strings[p.funcName[fn]])
			}
		}
		out[bucketOf(frames)] += s.count
	}
	return out, nil
}

// bucketOf charges one stack, innermost frame first.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if isGCFrame(f) {
			return bucketGC
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return bucketBench
		}
		if rest, ok := strings.CutPrefix(f, repoPrefix); ok {
			mod := rest
			if i := strings.IndexAny(mod, ".["); i >= 0 {
				mod = mod[:i]
			}
			if !slices.Contains(cpuModules, mod) {
				mod = "other"
			}
			return mod
		}
	}
	return bucketRuntime
}

func isGCFrame(f string) bool {
	switch f {
	case "runtime.GC", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot":
		return true
	}
	return strings.HasPrefix(f, "runtime.gc")
}

// profile is the subset of the pprof protobuf the attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

var errTruncated = errors.New("truncated protobuf")

// decodeProfile parses a profile.proto message: sample = 2, location =
// 4, function = 5, string_table = 6.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s sample
			var values []uint64
			if err := eachField(data, func(f int, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, d)
				case 2:
					values = appendVarints(values, w, v, d)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(data, func(f int, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line: function_id = 1
					return eachField(d, func(lf int, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5:
			var id uint64
			var name int64
			if err := eachField(data, func(f int, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcName {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// eachField walks one message's fields; v carries varint values and
// data the bytes of length-delimited fields.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated varint field in either encoding.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
