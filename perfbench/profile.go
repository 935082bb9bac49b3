package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// layers are the repository packages host time and allocations are
// folded into, in report order. "perfbench" is the benchmark's own
// code; "other" holds frames with no repository caller at all.
var layers = []string{
	"simclock", "sched", "mem", "kswapd", "lmkd", "blockio", "player",
	"abr", "qoe", "exp", "device", "mempress", "netem", "faults",
	"dash", "cdn", "loadgen", "resilience", "stats",
	"proc", "trace", "telemetry", "perfbench", "other",
}

const repoPrefix = "coalqoe/internal/"

// layerOf folds a stack, leaf first, into the layer it is charged to:
// the package of the innermost repository frame, so standard-library
// and runtime frames count for the repository code that called them.
func layerOf(funcs []string) string {
	for _, f := range funcs {
		if strings.HasPrefix(f, repoPrefix) {
			pkg := f[len(repoPrefix):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			return pkg
		}
		if strings.HasPrefix(f, "main.") {
			return "perfbench"
		}
	}
	return "other"
}

// isGC reports whether a stack is garbage-collector work: background
// mark workers, mark assists charged to allocating code, sweeping and
// scavenging, and write barriers.
func isGC(funcs []string) bool {
	for _, f := range funcs {
		if strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" ||
			f == "runtime.bgscavenge" || strings.HasPrefix(f, "runtime.wbBuf") {
			return true
		}
	}
	return false
}

// cpuProfileHz is the CPU profile's requested sampling rate. At
// pprof's default of 100 Hz a small layer's figure rests on one or two
// 10 ms samples. The kernel delivers at most one profiling signal per
// scheduler tick, so the rate achieved can be lower (about 250 Hz on a
// 250 Hz kernel).
const cpuProfileHz = 1000

// cpuProfileRounds runs whole rounds of r under a CPU profile and
// returns the CPU time by layer, in nanoseconds, and the number of
// samples it rests on; "gc" holds the garbage collector's. The layers'
// times are their shares of the samples applied to the process CPU
// time the phase measured, so they add up to it whatever sampling
// rate the kernel achieved.
func cpuProfileRounds(r runner, budget time.Duration) (phase, map[string]int64, map[string]int64, error) {
	var buf bytes.Buffer
	// Setting the rate first makes StartCPUProfile keep it; the runtime
	// then prints a warning that it cannot set its own 100 Hz.
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return phase{}, nil, nil, fmt.Errorf("start CPU profile: %w", err)
	}
	p := runRounds(r, budget)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(&buf)
	if err != nil {
		return phase{}, nil, nil, fmt.Errorf("read CPU profile: %w", err)
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		l := "gc"
		if !isGC(s.funcs) {
			l = layerOf(s.funcs)
		}
		counts[l] += s.count
		total += s.count
	}
	nanos := map[string]int64{}
	for l, n := range counts {
		if total == 0 {
			break
		}
		nanos[l] = int64(float64(p.cpu) * float64(n) / float64(total))
	}
	return p, nanos, counts, nil
}

// allocProfileRounds runs whole rounds of r with every allocation
// recorded (MemProfileRate 1) and returns the allocations by layer.
func allocProfileRounds(r runner, budget time.Duration) (phase, map[string]int64) {
	saved := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = saved }()
	before := allocSnapshot()
	p := runRounds(r, budget)
	after := allocSnapshot()
	byLayer := map[string]int64{}
	for stack, rec := range after {
		if d := rec.objects - before[stack].objects; d > 0 {
			byLayer[layerOf(rec.funcs)] += d
		}
	}
	return p, byLayer
}

// allocRecord is one allocation site's cumulative object count.
type allocRecord struct {
	objects int64
	funcs   []string
}

// allocSnapshot returns the cumulative allocation counts by stack. The
// profile is published per garbage-collection cycle, so two forced
// cycles make it current.
func allocSnapshot() map[string]allocRecord {
	runtime.GC()
	runtime.GC()
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
	out := make(map[string]allocRecord, len(recs))
	for i := range recs {
		stk := recs[i].Stack()
		key := fmt.Sprint(stk)
		rec := out[key]
		if rec.funcs == nil {
			frames := runtime.CallersFrames(stk)
			for {
				f, more := frames.Next()
				rec.funcs = append(rec.funcs, f.Function)
				if !more {
					break
				}
			}
		}
		rec.objects += recs[i].AllocObjects
		out[key] = rec
	}
	return out
}

// cpuSample is one CPU-profile sample record: its stack (function
// names, leaf first, inlined frames expanded) and the number of
// profiling signals that landed on it.
type cpuSample struct {
	funcs []string
	count int64
}

// parseCPUProfile decodes the gzipped profile.proto that
// runtime/pprof writes, keeping only what folding needs.
func parseCPUProfile(r io.Reader) ([]cpuSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, b)
				case 2:
					for _, x := range appendPacked(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f, w int, v uint64, b []byte) error {
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
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
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
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		// sample_type is [samples/count, cpu/nanoseconds].
		if len(s.values) < 1 {
			return nil, errors.New("CPU sample without a count")
		}
		cs := cpuSample{count: s.values[0]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					cs.funcs = append(cs.funcs, strs[i])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. Varint fields
// arrive in v, length-delimited ones in b; fixed-width fields are
// skipped.
func eachField(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		tag, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad protobuf tag")
		}
		msg = msg[n:]
		field, wire := int(tag>>3), int(tag&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("bad protobuf varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short protobuf fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad protobuf length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short protobuf fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that may arrive packed
// (one length-delimited run) or as a single varint.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
