package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// cpuSample is one CPU-profile sample: its weight in samples, the function
// names on its stack (inlined frames included, leaf first) and its labels.
type cpuSample struct {
	Count  int64
	Funcs  []string
	Labels map[string]string
}

// readCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what the CPU attribution needs. The format is
// documented in github.com/google/pprof/proto/profile.proto; the standard
// library ships a writer but no reader.
func readCPUProfile(path string) ([]cpuSample, error) {
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

	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indexes
	}
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name index
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
	)
	err = eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUvarints(&s.locs, wire, v, b)
				case 2:
					var u []uint64
					if err := appendUvarints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var kv [2]int64
					err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = int64(v)
						}
						return nil
					})
					if err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{Labels: map[string]string{}}
		if len(s.values) > 0 {
			cs.Count = s.values[0]
		}
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				cs.Funcs = append(cs.Funcs, str(funcs[fn]))
			}
		}
		for _, kv := range s.labels {
			cs.Labels[str(kv[0])] = str(kv[1])
		}
		out = append(out, cs)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the top-level fields of one protobuf message. For
// varint fields v holds the value; for length-delimited fields b holds the
// payload. Fixed-width fields are skipped.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
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
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
			continue
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
			data = data[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUvarints appends a repeated varint field, packed or not.
func appendUvarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	r := bytes.NewReader(b)
	for r.Len() > 0 {
		x, err := binary.ReadUvarint(r)
		if err != nil {
			return errTruncated
		}
		*dst = append(*dst, x)
	}
	return nil
}
