package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// layers are the units the traced run splits host cost into: the packages
// under internal/ that the workloads execute, the root package as "facade",
// "tree" (the overlay trees bullet and core build on), "other" for any
// further internal package, and "runtime" for samples with no repository
// frame at all (the Go runtime, the standard library called from it, and
// the benchmark's own code).
var layers = []string{
	"sim", "netem", "proto", "core", "bullet", "bittorrent", "splitstream",
	"ransub", "scenario", "stream", "harness", "lab", "trace", "obs",
	"tree", "other", "facade", "runtime",
}

const repoModule = "bulletprime"

// layerOf charges a stack, given innermost frame first, to the layer of its
// innermost repository frame: a standard-library sort called from netem is
// netem's cost, and a stack with no repository frame is the runtime's.
func layerOf(frames []string) string {
	for _, fn := range frames {
		pkg := funcPackage(fn)
		if pkg == repoModule {
			return "facade"
		}
		sub, ok := strings.CutPrefix(pkg, repoModule+"/internal/")
		if !ok {
			continue
		}
		sub, _, _ = strings.Cut(sub, "/")
		for _, l := range layers {
			if l == sub {
				return l
			}
		}
		return "other"
	}
	return "runtime"
}

// funcPackage returns the import path of a symbol name as profiles print
// it, such as "bulletprime/internal/netem.(*Network).recompute.func1".
// Type-parameter lists are dropped first, since they may name packages
// themselves.
func funcPackage(fn string) string {
	var b strings.Builder
	depth := 0
	for _, r := range fn {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := b.String()
	slash := strings.LastIndexByte(s, '/')
	dot := strings.IndexByte(s[slash+1:], '.')
	if dot < 0 {
		return s
	}
	return s[:slash+1+dot]
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	sampleTypes []string
	samples     []profSample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]int64    // function id → name's string-table index
	strings     []string
}

type profSample struct {
	locations []uint64 // leaf first
	values    []int64
}

// readProfile parses a gzip-compressed pprof profile file.
func readProfile(path string) (*profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// Field numbers of the pprof profile.proto messages read here.
const (
	profSampleType  = 1
	profSamples     = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func parseProfile(data []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	var typeIdx []int64
	err := forFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case profSampleType:
			return forFields(b, func(f int, v uint64, _ []byte) error {
				if f == valueTypeType {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case profSamples:
			var s profSample
			err := forFields(b, func(f int, v uint64, packed []byte) error {
				switch f {
				case sampleLocationID:
					return appendVarints(&s.locations, v, packed)
				case sampleValue:
					var vs []uint64
					if err := appendVarints(&vs, v, packed); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := forFields(b, func(f int, v uint64, line []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return forFields(line, func(f int, v uint64, _ []byte) error {
						if f == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := forFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, p.str(i))
	}
	return p, nil
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// byLayer sums one sample value, named by its type ("cpu", "alloc_space"),
// per layer; every sample lands in exactly one layer, so the layers add up
// to the returned total.
func (p *profile) byLayer(sampleType string) (map[string]int64, int64, error) {
	col := -1
	for i, t := range p.sampleTypes {
		if t == sampleType {
			col = i
		}
	}
	if col < 0 {
		return nil, 0, fmt.Errorf("profile has no %q samples (has %v)", sampleType, p.sampleTypes)
	}
	out := map[string]int64{}
	var total int64
	var frames []string
	for _, s := range p.samples {
		if col >= len(s.values) {
			return nil, 0, errors.New("profile sample is missing values")
		}
		frames = frames[:0]
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				frames = append(frames, p.str(p.functions[fn]))
			}
		}
		out[layerOf(frames)] += s.values[col]
		total += s.values[col]
	}
	return out, total, nil
}

// forFields calls fn for each field of a protobuf message: v holds a varint
// or fixed-width value, b the bytes of a length-delimited one.
func forFields(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0: // varint
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1: // fixed64
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5: // fixed32
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, which the encoder writes
// either one value per field (packed == nil) or packed into one run.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
