package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"
)

// profiler records the CPU and mutex profiles of a traced phase plus
// runtime counters, and attributes CPU samples to the program's layers.
type profiler struct {
	cpu     bytes.Buffer
	started time.Time
	wall    time.Duration
	before  []metrics.Sample
	after   []metrics.Sample
	// delay is the mutex profile's contention delay during the phase;
	// the profile is cumulative, so it is read at both ends.
	delay int64
}

// runtimeMetrics are the runtime counters read around a traced phase.
var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func startProfiler() (*profiler, error) {
	p := &profiler{}
	before, err := mutexDelay()
	if err != nil {
		return nil, err
	}
	runtime.SetMutexProfileFraction(1)
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		runtime.SetMutexProfileFraction(0)
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	p.delay = -before
	p.before = readRuntime()
	p.started = time.Now()
	return p, nil
}

func (p *profiler) stop() error {
	p.wall = time.Since(p.started)
	p.after = readRuntime()
	pprof.StopCPUProfile()
	runtime.SetMutexProfileFraction(0)
	after, err := mutexDelay()
	p.delay += after
	return err
}

// mutexDelay is the total contention delay in the process's mutex
// profile, in nanoseconds.
func mutexDelay() (int64, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&buf, 0); err != nil {
		return 0, fmt.Errorf("write mutex profile: %w", err)
	}
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		return 0, fmt.Errorf("mutex profile: %w", err)
	}
	var delay int64
	for _, s := range prof.samples {
		if len(s.values) > 1 {
			delay += s.values[1]
		}
	}
	return delay, nil
}

func (p *profiler) delta(i int) float64 {
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			return s.Value.Float64()
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		}
		return 0
	}
	return val(p.after[i]) - val(p.before[i])
}

// gcShare is the share of CPU time the garbage collector used, in %.
func (p *profiler) gcShare() float64 { return 100 * ratio(p.delta(0), p.delta(1)) }

// allocBytes is the heap bytes allocated during the phase.
func (p *profiler) allocBytes() float64 { return p.delta(2) }

// lockWaitShare is the mutex-profile contention delay as a share of the
// phase's wall time on every P, in %.
func (p *profiler) lockWaitShare() float64 {
	capacity := float64(p.wall) * float64(runtime.GOMAXPROCS(0))
	return 100 * ratio(float64(p.delay), capacity)
}

// cpuProfile decodes the recorded CPU profile into stacks of function
// names, leaf first, one per sample weighted by its sample count.
func (p *profiler) cpuProfile() (*stacks, error) {
	prof, err := parseProfile(p.cpu.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return prof.stacks(), nil
}

// stacks is a decoded CPU profile.
type stacks struct {
	frames  [][]string // leaf first
	weights []int64
	total   int64
}

// cumShare is the % of samples with any frame whose function name has
// one of the given prefixes (a sample counts once however many match).
func (s *stacks) cumShare(prefixes ...string) float64 {
	var hit int64
	for i, st := range s.frames {
		if anyFrame(st, prefixes) {
			hit += s.weights[i]
		}
	}
	return 100 * ratio(float64(hit), float64(s.total))
}

// selfShare is the % of samples whose leaf function belongs to pkg.
func (s *stacks) selfShare(pkg string) float64 {
	var hit int64
	for i, st := range s.frames {
		if len(st) > 0 && funcPackage(st[0]) == pkg {
			hit += s.weights[i]
		}
	}
	return 100 * ratio(float64(hit), float64(s.total))
}

func anyFrame(stack []string, prefixes []string) bool {
	for _, fn := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}

// funcPackage returns the import path of a fully qualified function
// name such as "sereth/internal/p2p.(*Network).AdvanceTo".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// The decoder below reads the subset of the pprof protobuf format
// (github.com/google/pprof/proto/profile.proto) that attribution needs:
// samples, locations with their (possibly inlined) lines, functions and
// the string table.

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, leaf first
	functions map[uint64]int64    // function id -> name string index
	strs      []string
}

func (p *profile) stacks() *stacks {
	out := &stacks{}
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fid := range p.locations[loc] {
				idx := p.functions[fid]
				if idx >= 0 && int(idx) < len(p.strs) {
					frames = append(frames, p.strs[idx])
				}
			}
		}
		w := int64(1)
		if len(s.values) > 0 {
			w = s.values[0]
		}
		out.frames = append(out.frames, frames)
		out.weights = append(out.weights, w)
		out.total += w
	}
	return out
}

var errProto = errors.New("malformed profile")

func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, err
		}
		data = raw
	}
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s profSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
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
			p.functions[id] = name
			return err
		case 6: // string table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendVarints appends a repeated varint field, packed (wire type 2)
// or not (wire type 0).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
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

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire 0) and payload (wire 2).
func eachField(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errProto
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errProto
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errProto
			}
			payload = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errProto
			}
			data = data[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}
