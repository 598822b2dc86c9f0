package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped protobuf profiles runtime/pprof
// writes: just enough of profile.proto to recover each sample's stack
// and CPU time. The standard library has no decoder and the benchmark
// takes no dependencies.

// cpuSample is one profile sample: its stack, leaf first, and the CPU
// time it stands for.
type cpuSample struct {
	frames []string
	nanos  int64
}

// parseCPUProfile decodes a runtime/pprof CPU profile.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct{ locs, values []uint64 }
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName  = map[uint64]uint64{}   // function id -> string index
		strs      []string
		valueType [][2]uint64 // (type, unit) string indexes per sample value
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]uint64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = v
				}
				return nil
			}); err != nil {
				return err
			}
			valueType = append(valueType, vt)
		case 2: // sample
			var s rawSample
			if err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, w, v, b)
				case 2:
					s.values = appendPacked(s.values, w, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id, name uint64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	nsIdx := -1
	for i, vt := range valueType {
		if str(vt[1]) == "nanoseconds" {
			nsIdx = i
		}
	}
	if nsIdx < 0 {
		return nil, errors.New("profile: no nanoseconds sample value (not a CPU profile?)")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if nsIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a CPU time value")
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				frames = append(frames, str(funcName[fn]))
			}
		}
		out = append(out, cpuSample{frames: frames, nanos: int64(s.values[nsIdx])})
	}
	return out, nil
}

// appendPacked appends a repeated scalar that may be encoded packed
// (wire type 2) or as one varint.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type plus its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// namedModules are the repository packages with a bucket of their own;
// other repro/internal packages share "internal_other".
var namedModules = map[string]bool{
	"spec": true, "experiment": true, "clock": true, "netsim": true,
	"recursive": true, "cache": true, "authoritative": true, "stub": true,
	"vantage": true, "zone": true, "dnswire": true, "adversary": true,
	"metrics": true, "udprun": true,
}

// gcFrames mark a stack as garbage-collector work: mark workers, mark
// assists, sweeping, scavenging and write-barrier flushes.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc",
	"runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.greyobject", "runtime.bgsweep",
	"runtime.sweepone", "runtime.bgscavenge", "runtime.gcStart",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.GC",
	"runtime.wbBufFlush", "runtime.gcWriteBarrier", "runtime.(*gcWork)",
	"runtime.(*mspan).sweep", "runtime.(*sweepLocked)", "runtime.(*mheap).reclaim",
	"runtime.deductSweepCredit",
}

var syscallPrefixes = []string{"syscall.", "internal/runtime/syscall.",
	"runtime/internal/syscall.", "golang.org/x/sys/unix."}

// bucketOf charges one stack (leaf first) to exactly one bucket of
// cpuBuckets. Precedence: GC work, then allocation, then the
// benchmark's own code (load generator, harness), then system calls,
// then the leaf-most repository module, then the runtime, then the
// rest of the standard library.
func bucketOf(frames []string) string {
	if anyFrame(frames, func(f string) bool { return hasAnyPrefix(f, gcFrames) }) {
		return "runtime.gc"
	}
	if anyFrame(frames, func(f string) bool { return strings.HasPrefix(f, "runtime.mallocgc") }) {
		return "runtime.malloc"
	}
	mod := ""
	for _, f := range frames {
		if m := moduleOf(f); m != "" {
			mod = m
			break
		}
	}
	if mod == "bench" {
		return mod
	}
	if anyFrame(frames, func(f string) bool { return hasAnyPrefix(f, syscallPrefixes) }) {
		return "syscall"
	}
	if mod != "" {
		return mod
	}
	if len(frames) > 0 && strings.HasPrefix(frames[0], "runtime.") {
		return "runtime.other"
	}
	return "other"
}

// moduleOf maps a function name to its repository bucket: a named
// internal module, "internal_other", "bench" for the benchmark's own
// package (named "main." in the binary and "repro/perfbench." in its
// tests), or "" outside the repository.
func moduleOf(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/perfbench.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	if namedModules[rest] {
		return rest
	}
	return "internal_other"
}

func anyFrame(frames []string, pred func(string) bool) bool {
	for _, f := range frames {
		if pred(f) {
			return true
		}
	}
	return false
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// bucketNanos sums sample CPU time per bucket and over all samples.
func bucketNanos(samples []cpuSample) (map[string]int64, int64) {
	nanos := make(map[string]int64, len(cpuBuckets))
	var total int64
	for _, s := range samples {
		nanos[bucketOf(s.frames)] += s.nanos
		total += s.nanos
	}
	return nanos, total
}

// cpuByBucket returns CPU seconds per bucket, every bucket of cpuBuckets
// present, plus "total" over all samples.
func cpuByBucket(samples []cpuSample) map[string]float64 {
	nanos, total := bucketNanos(samples)
	out := make(map[string]float64, len(cpuBuckets)+1)
	for _, b := range cpuBuckets {
		out[b] = float64(nanos[b]) / 1e9
	}
	out["total"] = float64(total) / 1e9
	return out
}
