package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message.
// The benchmark needs only the sample stacks and their function names,
// so it decodes those few fields itself rather than depending on the
// pprof module.

// profileStack is one sampled call stack, innermost frame first, with
// its sample count.
type profileStack struct {
	funcs []string
	count int64
}

// decodeProfile parses the stacks of a gzipped CPU profile.
func decodeProfile(gz []byte) ([]profileStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string table index
		strs      []string
	)
	err = walkProto(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkProto(b, func(f int, v uint64, _ []byte) error {
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
			err := walkProto(b, func(f int, v uint64, _ []byte) error {
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
	out := make([]profileStack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := profileStack{count: s.values[0]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// walkProto calls fn for every field of a protobuf message: v carries a
// varint (or fixed) value, b the bytes of a length-delimited field.
func walkProto(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errBadProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errBadProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errBadProto
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errBadProto
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errBadProto
			}
			msg = msg[4:]
		default:
			return errBadProto
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

var errBadProto = errors.New("profile: malformed protobuf")

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// appendVarints appends a repeated varint field that arrived either
// unpacked (one value v) or packed (the bytes b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// Attribution buckets beyond the module's packages.
const (
	bucketHandoff = "sim.handoff" // Go scheduler and channel handoff between simulated processes
	bucketGC      = "go.gc"       // allocation and garbage collection
	bucketOther   = "go.other"    // the rest of the runtime and standard library
	bucketBench   = "bench"       // the benchmark's own code
)

// gcFuncs mark a stack as allocation or GC work wherever they appear.
var gcFuncs = []string{
	"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.growslice",
	"runtime.newobject", "runtime.makeslice", "runtime.gcDrain", "runtime.markroot",
	"runtime.scanobject", "runtime.sweepone", "runtime.gcMarkDone", "runtime.gcMarkTermination",
}

// handoffFuncs mark the goroutine handshake every sim.Proc switch pays.
var handoffFuncs = []string{
	"runtime.chanrecv", "runtime.chansend", "runtime.selectgo", "runtime.gopark",
	"runtime.goready", "runtime.ready", "runtime.schedule", "runtime.park_m",
	"runtime.mcall", "runtime.casgstatus", "runtime.findRunnable", "runtime.findrunnable",
	"runtime.execute", "runtime.gogo", "runtime.goexit0", "runtime.newproc",
	"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.notewakeup", "runtime.notesleep",
}

func hasFunc(stack []string, set []string) bool {
	for _, f := range stack {
		for _, s := range set {
			if f == s {
				return true
			}
		}
	}
	return false
}

// layerOf names the module package a function belongs to ("sim" for
// vscc/internal/sim.(*Kernel).Run), bucketBench for the benchmark's own
// code, or "" for anything outside the module.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "vscc/internal/"):
		rest := fn[len("vscc/internal/"):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
	case strings.HasPrefix(fn, "main."):
		return bucketBench
	}
	return ""
}

// attribute assigns one stack to exactly one bucket, so a profile's
// shares sum to one. Allocation and GC win wherever they appear, then
// the goroutine handoff when the innermost frames are runtime code, and
// otherwise the innermost module frame's package takes the sample
// (standard-library helpers count toward the layer that called them).
func attribute(stack []string) string {
	if hasFunc(stack, gcFuncs) {
		return bucketGC
	}
	leafRuntime := 0
	for leafRuntime < len(stack) && strings.HasPrefix(stack[leafRuntime], "runtime.") {
		leafRuntime++
	}
	if hasFunc(stack[:leafRuntime], handoffFuncs) {
		return bucketHandoff
	}
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return bucketOther
}

// cpuShares turns a profile into each bucket's share of CPU samples.
func cpuShares(stacks []profileStack) map[string]float64 {
	counts := map[string]int64{}
	var total int64
	for _, s := range stacks {
		counts[attribute(s.funcs)] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares
	}
	for b, c := range counts {
		shares[b] = float64(c) / float64(total)
	}
	return shares
}
