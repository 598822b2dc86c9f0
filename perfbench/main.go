// Command perfbench is the repository's host-side benchmark. It drives
// the simulator (spec, experiment) and the real-socket engines
// (authoritative, recursive, udprun) through their Go APIs, one workload
// per process:
//
//	perfbench --workload ddos-stream --seed 42 --seconds 30 --trace 0
//
// With --trace 0 it prints every end-to-end metric; with --trace 1 it
// adds one traced pass (CPU profile, MemStats deltas, spans around each
// public call) and prints every per-layer metric. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. A failed correctness check exits 1 after printing it.
// METRICS.md records what each metric means on each workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

type metricDef struct{ name, unit, better string }

// endToEnd lists the user-visible metrics, measured with tracing off.
// Every workload reports every one; METRICS.md gives each one's meaning
// per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"vps", "1/s", "higher"},
	{"wall_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"p50_us", "us", "lower"},
	{"p99_us", "us", "lower"},
	{"max_rate_qps", "1/s", "higher"},
	{"answered_frac_overload", "ratio", "higher"},
}

// families are the experiment families the campaign specs cover, one
// experiment.run_s.<family> span total each.
var families = []string{"ddos", "caching", "glue", "passive", "retries",
	"implications", "nxns", "poison", "reflect", "transport"}

// cpuBuckets are the modules a CPU-profile sample can be charged to;
// every sample lands in exactly one (see bucketOf).
var cpuBuckets = []string{
	"runtime.gc", "runtime.malloc", "syscall",
	"spec", "experiment", "clock", "netsim", "recursive", "cache",
	"authoritative", "stub", "vantage", "zone", "dnswire", "adversary",
	"metrics", "udprun", "internal_other", "bench", "runtime.other", "other",
}

// perLayer lists the traced run's metrics. Layers a workload does not
// reach report 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"spec.compile_s", "s", "lower"},
		{"experiment.run_s", "s", "lower"},
	}
	for _, f := range families {
		defs = append(defs, metricDef{"experiment.run_s." + f, "s", "lower"})
	}
	defs = append(defs,
		metricDef{"experiment.render_s", "s", "lower"},
		metricDef{"clock.host_ns_per_event", "ns", "lower"},
	)
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{"cpu_s." + b, "s", "lower"})
	}
	defs = append(defs,
		metricDef{"cpu_s.total", "s", "lower"},
		metricDef{"runtime.allocs_per_vp", "count", "lower"},
		metricDef{"runtime.bytes_per_vp", "B", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"runtime.allocs_per_query", "count", "lower"},
		metricDef{"udprun.auth_direct_p50_us", "us", "lower"},
		metricDef{"recursive.hit_p50_us", "us", "lower"},
		metricDef{"recursive.hit_p99_us", "us", "lower"},
		metricDef{"recursive.miss_p50_us", "us", "lower"},
		metricDef{"recursive.miss_p99_us", "us", "lower"},
		metricDef{"gen.late_p99_us", "us", "lower"},
		metricDef{"clock.events_fired", "count", "lower"},
		metricDef{"netsim.sent", "count", "lower"},
		metricDef{"netsim.dropped", "count", "lower"},
		metricDef{"cache.hit_ratio", "ratio", "higher"},
		metricDef{"resolver.upstream_per_client", "ratio", "lower"},
		metricDef{"resolver.upstream_retries", "count", "lower"},
		metricDef{"resolver.stale_serves", "count", "higher"},
		metricDef{"authoritative.queries", "count", "lower"},
		metricDef{"vantage.queries_sent", "count", "higher"},
		metricDef{"trace.overhead_ratio", "ratio", "lower"},
	)
	return defs
}()

// params are the command-line settings every workload receives.
type params struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string // traced-run artifacts (spans, profile, metrics)
}

// report is what one workload run produces.
type report struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	digest    string   // hash of the simulated (or served) outputs
	problems  []string // failed correctness checks
	notes     []string // human-readable lines printed before the result
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(params) (*report, error){
	"ddos-stream":  runDDoSStream,
	"campaigns":    runCampaigns,
	"resolver-udp": runResolverUDP,
}

func main() {
	name := flag.String("workload", "", "ddos-stream | campaigns | resolver-udp")
	seed := flag.Int64("seed", 42, "input seed (42 reproduces the committed paper tables)")
	seconds := flag.Float64("seconds", 30, "measured host seconds per run")
	traceOn := flag.Int("trace", 0, "1 adds the traced pass and prints the per-layer metrics")
	out := flag.String("out", ".bench_out", "directory for traced-run artifacts")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload ddos-stream|campaigns|resolver-udp --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	p := params{seed: *seed, seconds: *seconds, trace: *traceOn == 1,
		outDir: fmt.Sprintf("%s/%s-seed%d", *out, *name, *seed)}

	stamp := stampLine(*name, *seed)
	fmt.Println(stamp)
	rep, err := run(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	defs := endToEnd
	if p.trace {
		defs = perLayer
	}
	if err := emit(rep, defs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if p.trace {
		if err := writeLayerFile(p.outDir, stamp, rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints the human-readable lines and then the result object as
// the last line of stdout. Every metric in defs must be present.
func emit(rep *report, defs []metricDef) error {
	res := jsonResult{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operations attempted")
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	fmt.Printf("result_digest: %s\n", rep.digest)
	fmt.Printf("failed_frac: %.6g (%d of %d)\n", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	for _, pr := range rep.problems {
		fmt.Printf("CORRECTNESS FAILURE: %s\n", pr)
	}
	for _, d := range defs {
		fmt.Printf("%-34s %16.6g %s\n", d.name, rep.metrics[d.name], d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// stampLine records the machine and inputs a result was measured on.
func stampLine(workload string, seed int64) string {
	return fmt.Sprintf("# stamp: workload=%s seed=%d go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s",
		workload, seed, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(),
		cpuModel(), commitHash())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitHash is the VCS revision the binary was built from: the build
// info when the toolchain stamped it, else .git/HEAD of the working
// directory, else "unknown" (a checkout without git metadata).
func commitHash() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if r, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(".git/" + r)
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(b))
	}
	return ref
}

// writeLayerFile stores the per-layer metrics with the stamp next to the
// traced run's spans and profile.
func writeLayerFile(dir, stamp string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(stamp + "\n")
	fmt.Fprintf(&b, "result_digest %s\n", rep.digest)
	for _, n := range names {
		fmt.Fprintf(&b, "%s %.9g\n", n, rep.metrics[n])
	}
	return os.WriteFile(dir+"/layers.txt", []byte(b.String()), 0o644)
}
