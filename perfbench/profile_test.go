package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

func TestBucketOfPrecedence(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.gcAssistAlloc", "repro/internal/cache.(*Cache).Put"}, "runtime.gc"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "repro/internal/dnswire.Unpack"}, "runtime.malloc"},
		{[]string{"syscall.Syscall6", "syscall.sendto", "net.(*UDPConn).WriteTo", "main.(*generator).send"}, "bench"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.recvfrom", "repro/internal/udprun.(*Conn).Serve"}, "syscall"},
		{[]string{"sort.Sort", "repro/internal/experiment.renderTable", "main.runCampaigns"}, "experiment"},
		{[]string{"repro/internal/clock.(*Wheel).fire", "repro/internal/experiment.runDDoSTestbed"}, "clock"},
		{[]string{"repro/internal/parallel.MapCtx[...].func1"}, "internal_other"},
		{[]string{"runtime.findRunnable", "runtime.schedule"}, "runtime.other"},
		{[]string{"fmt.Sprintf"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestProfileBucketsSumToTotal records a real CPU profile and checks that
// every sample lands in exactly one known bucket.
func TestProfileBucketsSumToTotal(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	var sink [][]byte
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		sink = append(sink, make([]byte, 1024))
		if len(sink) > 4096 {
			sink = sink[:0]
		}
	}
	pprof.StopCPUProfile()

	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("profile has no samples")
	}
	nanos, total := bucketNanos(samples)
	known := map[string]bool{}
	for _, b := range cpuBuckets {
		known[b] = true
	}
	var sum int64
	for b, n := range nanos {
		if !known[b] {
			t.Errorf("sample charged to unknown bucket %q", b)
		}
		sum += n
	}
	if sum != total || total <= 0 {
		t.Errorf("buckets sum to %d ns, profile total %d ns", sum, total)
	}
	if nanos["bench"] == 0 {
		t.Errorf("the test's own busy loop was not charged to bench: %v", nanos)
	}
}

// TestCatalogMatchesBenchmarkFile keeps BENCHMARK.json and the metric
// tables of this program in step.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd)
	check("per_layer", file.PerLayer, perLayer)
	for _, w := range file.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(file.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(file.Workloads), len(workloads))
	}
}
