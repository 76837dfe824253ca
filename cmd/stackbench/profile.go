package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzip-compressed protobuf
// (github.com/google/pprof/proto/profile.proto). go.mod has no
// dependencies, so the few fields the host-share attribution needs are
// decoded here: samples with their location ids and first value, locations
// with their (possibly inlined) function ids, functions with their names.

var errProfile = errors.New("cpu profile: malformed")

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProfile
}

// pbFields splits one message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.val, rest, err = pbVarint(rest); err != nil {
				return nil, err
			}
		case 1:
			if len(rest) < 8 {
				return nil, errProfile
			}
			rest = rest[8:]
		case 2:
			var n uint64
			if n, rest, err = pbVarint(rest); err != nil || n > uint64(len(rest)) {
				return nil, errProfile
			}
			f.data, rest = rest[:n], rest[n:]
		case 5:
			if len(rest) < 4 {
				return nil, errProfile
			}
			rest = rest[4:]
		default:
			return nil, errProfile
		}
		out = append(out, f)
		b = rest
	}
	return out, nil
}

// pbUints reads a repeated varint field, packed or not.
func pbUints(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	b := f.data
	for len(b) > 0 {
		v, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// profSample is one stack: function names leaf first, and its sample count.
type profSample struct {
	stack []string
	count int64
}

// decodeProfile returns the samples of a gzip'd pprof CPU profile.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFuncs := map[uint64][]uint64{}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var samples []rawSample
	for _, f := range top {
		if f.wire != 2 {
			continue
		}
		switch f.num {
		case 6: // string_table
			strs = append(strs, string(f.data))
		case 5: // Function{id=1, name=2}
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.val
				case 2:
					name = x.val
				}
			}
			funcName[id] = name
		case 4: // Location{id=1, line=4{function_id=1}}; line[0] is the innermost inlined frame
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.val
				case 4:
					ls, err := pbFields(x.data)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.val)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 2: // Sample{location_id=1, value=2}; value[0] is the sample count
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var s rawSample
			var vals []uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					if s.locs, err = pbUints(x, s.locs); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = pbUints(x, vals); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		}
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// moduleOf maps a function name to the host-share bucket of its package:
// the repo's own packages by their last path element, the Go runtime
// (scheduler, allocator, collector — where goroutine-per-process switching
// lands) as "runtime", everything else (the benchmark itself, the rest of
// the standard library) as "other".
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		if j := strings.Index(fn[i:], "."); j >= 0 {
			pkg = fn[:i+j]
		}
	} else if j := strings.Index(fn, "."); j >= 0 {
		pkg = fn[:j]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "xssd/internal/"):
		name := strings.TrimPrefix(pkg, "xssd/internal/")
		for _, m := range hostShareModules {
			if m == name {
				return m
			}
		}
	}
	return "other"
}

// gcRoots are the runtime entry points of collector work; a sample with
// one of them on its stack counts toward runtime.gc_share.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkTermination",
}

// hostShares buckets a CPU profile's samples by the package of the leaf
// frame (self time) into *.host_share, plus runtime.gc_share.
func hostShares(gz []byte) (metrics, error) {
	samples, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	out := metrics{"runtime.gc_share": 0}
	for _, m := range hostShareModules {
		out[m+".host_share"] = 0
	}
	var total float64
	for _, s := range samples {
		if len(s.stack) == 0 || s.count == 0 {
			continue
		}
		c := float64(s.count)
		total += c
		out[moduleOf(s.stack[0])+".host_share"] += c
		for _, fn := range s.stack {
			if isGCRoot(fn) {
				out["runtime.gc_share"] += c
				break
			}
		}
	}
	if total == 0 {
		return out, nil // a window shorter than the 10 ms sampling period
	}
	for name := range out {
		out[name] /= total
	}
	return out, nil
}

func isGCRoot(fn string) bool {
	for _, r := range gcRoots {
		if fn == r || strings.HasPrefix(fn, r+".") {
			return true
		}
	}
	return false
}
