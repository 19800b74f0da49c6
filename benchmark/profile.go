package main

// A minimal decoder for the gzipped profile.proto that runtime/pprof
// writes: just enough of the message schema (sample types, samples,
// locations with their inlined lines, functions, string table) to walk
// every sample's stack from leaf to root.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// frame is one function activation of a sample's stack.
type frame struct {
	name string // fully qualified, e.g. univistor/internal/sim.(*Engine).Run
	file string
}

// profSample is one stack (frames[0] is the leaf) with its values, parallel
// to profile.types.
type profSample struct {
	stack  []frame
	values []int64
}

// profile is a decoded pprof profile.
type profile struct {
	types   []string // "type/unit" per sample value, e.g. "cpu/nanoseconds"
	samples []profSample
}

// valueIndex returns the index of the sample value with the given
// "type/unit", or -1.
func (p *profile) valueIndex(typeUnit string) int {
	for i, t := range p.types {
		if t == typeUnit {
			return i
		}
	}
	return -1
}

// Field numbers of the profile.proto messages read here.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6

	fValueTypeType = 1
	fValueTypeUnit = 2

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
	fFunctionFile = 4
)

// decodeProfile parses a (possibly gzipped) profile.proto.
func decodeProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
	}
	type rawFunc struct{ name, file int64 }
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		typeIdx   [][2]int64
		raws      []rawSample
		locFuncs  = map[uint64][]uint64{}
		functions = map[uint64]rawFunc{}
	)
	err := walkFields(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fProfileStrings:
			strs = append(strs, string(b))
		case fProfileSampleType:
			var tu [2]int64
			err := walkFields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case fValueTypeType:
					tu[0] = int64(v)
				case fValueTypeUnit:
					tu[1] = int64(v)
				}
				return nil
			})
			typeIdx = append(typeIdx, tu)
			return err
		case fProfileSample:
			var s rawSample
			err := walkFields(b, func(n, w int, v uint64, pb []byte) error {
				switch n {
				case fSampleLocation:
					return appendVarints(w, v, pb, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return appendVarints(w, v, pb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := walkFields(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case fLocationID:
					id = v
				case fLocationLine:
					return walkFields(lb, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == fLineFunction {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var f rawFunc
			err := walkFields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					f.name = int64(v)
				case fFunctionFile:
					f.file = int64(v)
				}
				return nil
			})
			functions[id] = f
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, tu := range typeIdx {
		t, err := str(tu[0])
		if err != nil {
			return nil, err
		}
		u, err := str(tu[1])
		if err != nil {
			return nil, err
		}
		p.types = append(p.types, t+"/"+u)
	}
	frames := map[uint64]frame{}
	for id, f := range functions {
		name, err := str(f.name)
		if err != nil {
			return nil, err
		}
		file, err := str(f.file)
		if err != nil {
			return nil, err
		}
		frames[id] = frame{name: name, file: file}
	}
	for _, rs := range raws {
		if len(rs.values) != len(p.types) {
			return nil, fmt.Errorf("profile: sample has %d values for %d types", len(rs.values), len(p.types))
		}
		s := profSample{values: rs.values}
		for _, loc := range rs.locs {
			fns, ok := locFuncs[loc]
			if !ok {
				return nil, fmt.Errorf("profile: sample references unknown location %d", loc)
			}
			// A location's lines run from the innermost inlined function
			// out to the function it was inlined into.
			for _, fid := range fns {
				fr, ok := frames[fid]
				if !ok {
					return nil, fmt.Errorf("profile: location %d references unknown function %d", loc, fid)
				}
				s.stack = append(s.stack, fr)
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated message")

// walkFields calls fn for every field of one protobuf message: v holds a
// varint or fixed-width value, b the bytes of a length-delimited field.
func walkFields(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			v = binary.LittleEndian.Uint64(data)
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			v = uint64(binary.LittleEndian.Uint32(data))
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated integer field in either encoding: one
// varint per field, or a packed run of varints.
func appendVarints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}
