package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuPackages maps the package of a sample's leaf frame to the cpu.* metric
// it counts toward inside the solve span.
var cpuPackages = map[string]string{
	"github.com/uav-coverage/uavnet/internal/match":     "cpu.match",
	"github.com/uav-coverage/uavnet/internal/matroid":   "cpu.matroid",
	"github.com/uav-coverage/uavnet/internal/graph":     "cpu.graph",
	"github.com/uav-coverage/uavnet/internal/core":      "cpu.core",
	"github.com/uav-coverage/uavnet/internal/portfolio": "cpu.portfolio",
	"github.com/uav-coverage/uavnet/internal/assign":    "cpu.assign_flow",
	"github.com/uav-coverage/uavnet/internal/flow":      "cpu.assign_flow",
}

// gcFrames mark a sample as garbage-collector work wherever it sits in the
// stack; GC workers run unlabelled, so cpu.runtime_gc is a share of all
// samples.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// cpuLayers attributes the traced run's CPU profile. The cpu.<layer> values
// are sampled shares: of the samples labelled span=solve whose leaf frame is
// in the layer's package (cpu.match ... cpu.assign_flow); of all labelled
// samples with the leaf in encoding/json (cpu.json); of all samples inside
// the garbage collector (cpu.runtime_gc). cpu.samples is the solve-span
// sample count they rest on.
func cpuLayers(gz []byte, out *runOutput) error {
	p, err := parseProfile(gz)
	if err != nil {
		return err
	}
	var all, labelled, solve, gc, jsonLeaf int64
	perLayer := map[string]int64{}
	for _, s := range p.samples {
		all += s.count
		if len(s.funcs) == 0 {
			continue
		}
		for _, f := range s.funcs {
			if isGCFrame(f) {
				gc += s.count
				break
			}
		}
		span, ok := s.labels["span"]
		if !ok {
			continue
		}
		labelled += s.count
		pkg := funcPackage(s.funcs[0])
		if pkg == "encoding/json" {
			jsonLeaf += s.count
		}
		if span == "solve" {
			solve += s.count
			if m, ok := cpuPackages[pkg]; ok {
				perLayer[m] += s.count
			}
		}
	}
	v := out.values
	if solve > 0 {
		for _, m := range cpuPackages {
			v[m] = float64(perLayer[m]) / float64(solve)
		}
	}
	if labelled > 0 {
		v["cpu.json"] = float64(jsonLeaf) / float64(labelled)
	}
	if all > 0 {
		v["cpu.runtime_gc"] = float64(gc) / float64(all)
	}
	v["cpu.samples"] = float64(solve)
	out.extra["cpu_samples_all"] = float64(all)
	out.extra["cpu_samples_labelled"] = float64(labelled)
	return nil
}

func isGCFrame(f string) bool {
	for _, g := range gcFrames {
		if f == g {
			return true
		}
	}
	return false
}

// funcPackage returns the package path of a symbol such as
// "github.com/x/y/internal/match.(*Matcher).tryServe".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profile is the part of a pprof profile the benchmark reads: per sample,
// its count, its stack as function names (leaf first), and its labels.
type profile struct {
	samples []profSample
}

type profSample struct {
	count  int64
	funcs  []string
	labels map[string]string
}

// parseProfile decodes the gzipped profile.proto runtime/pprof writes. It
// reads only the fields it needs: Profile.sample (2), location (4),
// function (5) and string_table (6); Sample.location_id (1), value (2),
// label (3); Label.key (1), str (2); Location.id (1), line (4);
// Line.function_id (1); Function.id (1), name (2).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64
	}
	var (
		strs    []string
		samples []rawSample
		locFunc = map[uint64][]uint64{} // location id -> function ids, leaf first
		funName = map[uint64]int64{}    // function id -> string index
	)
	err = pbFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 6:
			strs = append(strs, string(b))
		case 2:
			var s rawSample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbRepeated(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbRepeated(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				case 3:
					var l [2]int64
					err := pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							l[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, l)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funName[id] = name
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{count: s.values[0], labels: map[string]string{}}
		for _, loc := range s.locs {
			for _, fn := range locFunc[loc] {
				ps.funcs = append(ps.funcs, str(funName[fn]))
			}
		}
		for _, l := range s.labels {
			ps.labels[str(l[0])] = str(l[1])
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// pbFields walks one protobuf message, calling f with each field number and
// either its varint/fixed value or its length-delimited bytes.
func pbFields(data []byte, f func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := pbVarint(data)
		if n == 0 {
			return errBadProto
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = pbVarint(data)
			if n == 0 {
				return errBadProto
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errBadProto
			}
			data = data[8:]
		case 2:
			l, n := pbVarint(data)
			if n == 0 || uint64(len(data)-n) < l {
				return errBadProto
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errBadProto
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated decodes a repeated varint field, packed (b != nil) or not.
func pbRepeated(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			return errBadProto
		}
		add(x)
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

var errBadProto = errors.New("profile: malformed protobuf")
