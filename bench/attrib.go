package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
)

// allocLayers are the layers allocations are charged to: the internal/
// modules the workloads drive, plus "other" for every remaining package,
// the harness and the runtime. cpuLayers add the runtime's own CPU.
var (
	allocLayers = []string{
		"gpu", "sim", "executor", "core", "serving", "cluster", "llm", "overload",
		"obs", "telemetry", "trace", "workload", "faults", "invariant", "other",
	}
	cpuLayers = append(allocLayers[:len(allocLayers):len(allocLayers)], "runtime.gc", "runtime.sched")
)

const internalPrefix = "olympian/internal/"

// layerOf charges one stack, innermost frame first, to a layer: the package
// of the innermost olympian/internal/<pkg> frame, so runtime leaf frames such
// as mapaccess and mallocgc count against the layer that called them.
// Internal packages outside allocLayers fold into "other". A stack with no
// olympian frame is the garbage collector's (runtime.gc), the scheduler's
// when it holds only runtime frames (runtime.sched), and otherwise the
// harness's or a library's (other).
func layerOf(frames []string) string {
	for _, f := range frames {
		if pkg, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, l := range allocLayers {
				if l == pkg {
					return l
				}
			}
			return "other"
		}
	}
	runtimeOnly := true
	for _, f := range frames {
		if isGCFrame(f) {
			return "runtime.gc"
		}
		if !strings.HasPrefix(f, "runtime.") {
			runtimeOnly = false
		}
	}
	if runtimeOnly {
		return "runtime.sched"
	}
	return "other"
}

// isGCFrame reports whether a runtime frame belongs to the garbage
// collector's background work: mark workers, sweeper, scavenger, or the
// profiler's "_GC" stand-in for GC work with no stack.
func isGCFrame(f string) bool {
	switch f {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime._GC", "runtime.forcegchelper":
		return true
	}
	return strings.HasPrefix(f, "runtime.gc")
}

// cpuByLayer folds a CPU profile (runtime/pprof's gzipped protobuf) into CPU
// nanoseconds per layer. total is the profile's whole sample value, so the
// shares sum to 1 exactly when every sample resolved.
func cpuByLayer(profile []byte) (byLayer map[string]int64, total int64, err error) {
	p, err := decodeProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	byLayer = make(map[string]int64)
	var frames []string
	for _, s := range p.samples {
		v := s.values[len(s.values)-1] // cpu nanoseconds follow the sample count
		total += v
		frames = frames[:0]
		resolved := true
		for _, loc := range s.locations {
			fns, ok := p.locations[loc]
			if !ok {
				resolved = false
				break
			}
			for _, fn := range fns {
				frames = append(frames, p.strings[p.functions[fn]])
			}
		}
		if resolved {
			byLayer[layerOf(frames)] += v
		}
	}
	return byLayer, total, nil
}

// allocProfile is the process's cumulative allocation profile folded by
// layer.
type allocProfile struct {
	objects, bytes map[string]int64
}

// allocByLayer folds runtime.MemProfile into allocated objects and bytes
// per layer. Call runtime.GC first: the profile publishes allocations only
// at the end of a GC cycle.
func allocByLayer() allocProfile {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	ap := allocProfile{objects: make(map[string]int64), bytes: make(map[string]int64)}
	var frames []string
	for _, r := range recs {
		frames = frames[:0]
		it := runtime.CallersFrames(r.Stack())
		for {
			f, more := it.Next()
			frames = append(frames, f.Function)
			if !more {
				break
			}
		}
		l := layerOf(frames)
		if strings.HasPrefix(l, "runtime.") {
			l = "other"
		}
		ap.objects[l] += r.AllocObjects
		ap.bytes[l] += r.AllocBytes
	}
	return ap
}

// since returns the allocations made between an earlier snapshot and ap.
func (ap allocProfile) since(before allocProfile) allocProfile {
	d := allocProfile{objects: make(map[string]int64), bytes: make(map[string]int64)}
	for l, v := range ap.objects {
		d.objects[l] = v - before.objects[l]
	}
	for l, v := range ap.bytes {
		d.bytes[l] = v - before.bytes[l]
	}
	return d
}

// profile is the subset of profile.proto that attribution reads.
type profile struct {
	samples   []pbSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type pbSample struct {
	locations []uint64 // innermost first
	values    []int64
}

var errProto = errors.New("malformed profile protobuf")

// decodeProfile parses a gzipped profile.proto message: samples (field 2),
// locations (4), functions (5) and the string table (6).
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err = pbFields(raw, func(f pbField) error {
		switch f.num {
		case 2:
			var s pbSample
			err := pbFields(f.data, func(g pbField) error {
				var err error
				switch g.num {
				case 1:
					s.locations, err = pbUints(s.locations, g)
				case 2:
					var vs []uint64
					vs, err = pbUints(nil, g)
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
				return err
			})
			if err == nil && len(s.values) == 0 {
				err = errProto
			}
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // Line: function_id is field 1
					return pbFields(g.data, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := pbFields(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	for _, fns := range p.locations {
		for _, fn := range fns {
			if _, ok := p.functions[fn]; !ok {
				return nil, errProto
			}
		}
	}
	return p, nil
}

// pbField is one protobuf field: v holds varint and fixed-width values,
// data the payload of a length-delimited one.
type pbField struct {
	num  int
	wire int
	v    uint64
	data []byte
}

// pbFields calls f on each field of the protobuf message b.
func pbFields(b []byte, f func(pbField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		fd := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch fd.wire {
		case 0:
			if fd.v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			fd.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			fd.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			fd.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := f(fd); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends the values of a repeated varint field, which the encoder
// writes packed or one per field.
func pbUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errProto
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}
