package perf

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the CPU profiles runtime/pprof writes: gzip over
// the profile.proto protobuf. Only what the flat per-module split needs is
// decoded — samples (leaf location and sample count), locations (their
// innermost function) and functions (their name) — so the benchmark stays
// standard-library only.

// selfShares returns, per module group, the percentage of CPU samples
// whose leaf frame lies in that group.
func selfShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("perf: cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("perf: cpu profile: %w", err)
	}

	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		locFn   = map[uint64]uint64{} // location id -> innermost function id
		fnName  = map[uint64]uint64{} // function id -> string-table index
	)
	err = eachField(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1: // location_id, leaf first
					ids := packedOrSingle(v, data)
					if first && len(ids) > 0 {
						s.leaf, first = ids[0], false
					}
				case 2: // value: [samples/count, cpu/nanoseconds]
					if vals := packedOrSingle(v, data); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first one is the innermost inlined frame
					if fn == 0 {
						return eachField(data, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make(map[string]float64, len(selfGroups))
	for _, g := range selfGroups {
		out[g] = 0
	}
	var total int64
	for _, s := range samples {
		name := ""
		if idx := fnName[locFn[s.leaf]]; idx < uint64(len(strs)) {
			name = strs[idx]
		}
		out[moduleGroup(name)] += float64(s.count)
		total += s.count
	}
	if total > 0 {
		for g := range out {
			out[g] = 100 * out[g] / float64(total)
		}
	}
	return out, nil
}

// eachField walks the top-level fields of a protobuf message. Varint
// fields arrive in v, length-delimited ones in data; fixed-width fields
// are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("perf: cpu profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("perf: cpu profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("perf: cpu profile: truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("perf: cpu profile: truncated field")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("perf: cpu profile: truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("perf: cpu profile: wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// packedOrSingle returns the values of a repeated varint field occurrence,
// which encoders may write packed (one length-delimited run) or one by one.
func packedOrSingle(v uint64, data []byte) []uint64 {
	if data == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		out = append(out, x)
		data = data[n:]
	}
	return out
}

// moduleGroup maps a fully qualified function name to its self.* group.
func moduleGroup(fn string) string {
	pkg := fn
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch pkg {
	case "repro/internal/simtime":
		return "simtime"
	case "repro/internal/vm", "repro/internal/vmem", "repro/internal/isa":
		return "vm"
	case "repro/internal/marcel":
		return "marcel"
	case "repro/internal/pm2", "repro/pm2", "repro/internal/fault":
		return "pm2"
	case "repro/internal/madeleine":
		return "madeleine"
	case "repro/internal/bip":
		return "bip"
	case "repro/internal/bitmap":
		return "bitmap"
	case "repro/internal/core", "repro/internal/layout":
		return "core"
	case "repro/internal/policy", "repro/internal/loadbal":
		return "policy"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}
