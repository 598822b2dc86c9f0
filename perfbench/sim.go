package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/spec"
)

// setupReps is how many timed batches of set-up a run takes at its
// start and again after every pass (see setupClock).
const setupReps = 15

// ddosCells is the ddos-stream population in default-size cells.
const ddosCells = 4

// campaignSets are the committed campaigns and the tables they render.
var campaignSets = []struct{ specs, golden string }{
	{"examples/specs/paper", "paper_run.txt"},
	{"examples/specs/adversary", "paper_run_adversary.txt"},
	{"examples/specs/transport.json", "paper_run_transport.txt"},
}

// paperSeed is the seed the committed tables were generated with.
const paperSeed = 42

// ---- ddos-stream ----

// ddosSpec generates the ddos-stream input: paper experiment H (90% loss
// on both authoritatives, TTL 1800) over ddosCells default-size cells on
// the sharded engine with one shard per CPU.
func ddosSpec(seed int64) []byte {
	return []byte(fmt.Sprintf(`{"version": 1, "name": "bench-H", "family": "ddos", "paper": "H",
  "engine": {"probes": %d, "seed": %d, "shards": %d, "shard_probes": %d}}`,
		ddosCells*experiment.DefaultShardProbes, seed, runtime.NumCPU(), experiment.DefaultShardProbes))
}

func compileDDoS(src []byte) (experiment.CampaignItem, error) {
	sp, err := spec.Parse(src)
	if err != nil {
		return experiment.CampaignItem{}, err
	}
	items, err := spec.CompileAll(sp, "")
	if err != nil {
		return experiment.CampaignItem{}, err
	}
	if len(items) != 1 {
		return experiment.CampaignItem{}, fmt.Errorf("spec compiled to %d runs, want 1", len(items))
	}
	return items[0], nil
}

func runDDoSStream(p params) (*report, error) {
	src := ddosSpec(p.seed)
	rep := newReport()
	var item experiment.CampaignItem
	setup := &setupClock{batch: 100, f: func() error {
		var err error
		item, err = compileDDoS(src)
		return err
	}}
	if err := setup.sample(); err != nil {
		return nil, err
	}
	if item.Config.Shards != runtime.NumCPU() {
		return nil, fmt.Errorf("compiled Shards=%d, want %d", item.Config.Shards, runtime.NumCPU())
	}

	ctx := context.Background()
	var first *experiment.Outcome
	log, err := measurePasses(p.seconds, 3, setup, func(pass int) {
		out, err := experiment.Run(ctx, item.Scenario, item.Config)
		d := checkDDoS(rep, out, err)
		if pass == 1 {
			first, rep.digest = out, d
		} else if d != rep.digest {
			rep.fail("pass %d digest %s differs from pass 1 (%s)", pass, d, rep.digest)
		}
	})
	if err != nil {
		return nil, err
	}
	if first == nil || first.DDoS == nil || first.Report == nil {
		return nil, fmt.Errorf("no ddos outcome")
	}
	vps := float64(first.DDoS.Table4.VPs)
	snap := first.Report.Metrics
	walls := log.walls
	// The run is the one request here, so its latencies are the passes'.
	simStats(rep, log, walls, setup.median(), vps/median(walls), snap)
	rep.note("ddos-stream: %d passes of %d VPs (%d probes, %d shards)", len(walls),
		first.DDoS.Table4.VPs, item.Config.Probes, item.Config.Shards)

	if p.trace {
		runtime.GC()
		tr := newTracer()
		var tItem experiment.CampaignItem
		var out *experiment.Outcome
		var runErr error
		var ms memDelta
		prof, err := profiled(func() error {
			t0 := time.Now()
			var err error
			tItem, err = compileDDoS(src)
			cid := tr.add("spec.compile", 0, 0, t0, time.Now())
			if err != nil {
				return err
			}
			ms = measureMem(func() {
				t1 := time.Now()
				out, runErr = experiment.Run(ctx, tItem.Scenario, tItem.Config)
				tr.add("experiment.run.ddos", cid, 0, t1, time.Now())
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
		if d := checkDDoS(rep, out, runErr); d != rep.digest {
			rep.fail("traced pass digest %s differs from untraced %s", d, rep.digest)
		}
		run := tr.total("experiment.run.ddos")
		layers := map[string]float64{
			"spec.compile_s":           tr.total("spec.compile"),
			"experiment.run_s":         run,
			"experiment.run_s.ddos":    run,
			"trace.overhead_ratio":     run / median(walls),
			"runtime.allocs_per_vp":    float64(ms.mallocs) / vps,
			"runtime.bytes_per_vp":     float64(ms.bytes) / vps,
			"runtime.gc_cycles":        float64(ms.gcs),
			"runtime.allocs_per_query": float64(ms.mallocs) / float64(snap.Scope("vantage").Counter("queries_sent")),
		}
		if err := finishTrace(p, rep, tr, prof, layers, run, snap); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// checkDDoS records a ddos-stream pass's correctness (the run returned
// no error and every report invariant holds) and returns the digest of
// its simulated outputs.
func checkDDoS(rep *report, out *experiment.Outcome, err error) string {
	rep.attempted++
	if err != nil || out == nil || out.DDoS == nil || out.Report == nil {
		rep.failed++
		rep.fail("ddos run failed: %v", err)
		return ""
	}
	bad := out.Report.FailedInvariants()
	for _, inv := range bad {
		rep.fail("invariant %s: %s", inv.Name, inv.Detail)
	}
	rep.failed += int64(len(bad))
	var b bytes.Buffer
	if err := out.Report.WriteJSON(&b); err != nil {
		rep.fail("report JSON: %v", err)
	}
	t := out.DDoS.Table4
	return digest(b.String(), fmt.Sprint(t.Probes, t.ProbesValid, t.VPs, t.Queries, t.TotalAnswers, t.ValidAnswers))
}

// ---- campaigns ----

// specFiles lists a campaign's spec files in the CLI's order: files as
// given, directories walked lexically.
func specFiles(path string) ([]string, error) {
	var files []string
	err := filepath.WalkDir(path, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(p, ".json") {
			files = append(files, p)
		}
		return nil
	})
	return files, err
}

// compileCampaigns loads and compiles every committed campaign spec with
// its engine seed replaced by seed, returning the items and where each
// campaign's items end.
func compileCampaigns(seed int64) ([]experiment.CampaignItem, []int, error) {
	var items []experiment.CampaignItem
	var ends []int
	for _, set := range campaignSets {
		files, err := specFiles(set.specs)
		if err != nil {
			return nil, nil, err
		}
		for _, f := range files {
			sp, err := spec.Load(f)
			if err != nil {
				return nil, nil, err
			}
			if sp.Engine == nil {
				sp.Engine = &spec.EngineSection{}
			}
			s := seed
			sp.Engine.Seed = &s
			its, err := spec.CompileAll(sp, f)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", f, err)
			}
			items = append(items, its...)
		}
		ends = append(ends, len(items))
	}
	return items, ends, nil
}

// renderSets renders each committed campaign from its slice of results.
func renderSets(results []experiment.CampaignResult, ends []int) []string {
	out := make([]string, len(ends))
	lo := 0
	for i, hi := range ends {
		out[i] = experiment.RenderCampaign(results[lo:hi])
		lo = hi
	}
	return out
}

func runCampaigns(p params) (*report, error) {
	rep := newReport()
	var items []experiment.CampaignItem
	var ends []int
	setup := &setupClock{batch: 4, f: func() error {
		var err error
		items, ends, err = compileCampaigns(p.seed)
		return err
	}}
	if err := setup.sample(); err != nil {
		return nil, err
	}
	var goldens []string
	if p.seed == paperSeed {
		for _, set := range campaignSets {
			b, err := os.ReadFile(set.golden)
			if err != nil {
				return nil, err
			}
			goldens = append(goldens, string(b))
		}
	}

	ctx := context.Background()
	workers := runtime.NumCPU()
	var vps float64
	var snap metrics.Snapshot
	var itemSecs, vpsRates []float64
	// Four passes at least give 112 run latencies: enough for a p90
	// with ten beyond it, the tail p99_us reports here.
	log, err := measurePasses(p.seconds, 4, setup, func(pass int) {
		results, times, err := runItems(ctx, items, workers)
		renders := renderSets(results, ends)
		if err != nil {
			rep.fail("campaign: %v", err)
		}
		d := checkCampaign(rep, results, renders, goldens)
		if pass == 1 {
			rep.digest = d
			vps, snap = campaignTotals(results)
		} else if d != rep.digest {
			rep.fail("pass %d digest %s differs from pass 1 (%s)", pass, d, rep.digest)
		}
		vpSecs := 0.0
		for k, t := range times {
			itemSecs = append(itemSecs, t.seconds())
			if vpsOf(results[k].Outcome) > 0 {
				vpSecs += t.seconds()
			}
		}
		vpsRates = append(vpsRates, vps/vpSecs)
	})
	if err != nil {
		return nil, err
	}
	walls := log.walls
	simStats(rep, log, itemSecs, setup.median(), median(vpsRates), snap)
	rep.note("campaigns: %d passes of %d runs (%.0f VPs), golden check: %v", len(walls), len(items), vps, goldens != nil)
	rep.note("run latency p50 %.4f s, p%g %.4f s over %d runs", percentile(sortedCopy(itemSecs), 50),
		tailPercentile(len(itemSecs)), tailOf(itemSecs), len(itemSecs))

	if p.trace {
		runtime.GC()
		tr := newTracer()
		var results []experiment.CampaignResult
		var renders []string
		var ms memDelta
		prof, err := profiled(func() error {
			t0 := time.Now()
			tItems, tEnds, err := compileCampaigns(p.seed)
			cid := tr.add("spec.compile", 0, 0, t0, time.Now())
			if err != nil {
				return err
			}
			ms = measureMem(func() {
				t1 := time.Now()
				var times []runTime
				results, times, _ = runItems(ctx, tItems, workers)
				rid := tr.add("campaign.run", cid, 0, t1, time.Now())
				for k, t := range times {
					family, _, _ := strings.Cut(tItems[k].Scenario.Name(), "-")
					tr.add("experiment.run."+family, rid, int64(k), t.start, t.end)
				}
				t2 := time.Now()
				renders = renderSets(results, tEnds)
				tr.add("experiment.render", rid, 0, t2, time.Now())
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
		if d := checkCampaign(rep, results, renders, goldens); d != rep.digest {
			rep.fail("traced pass digest %s differs from untraced %s", d, rep.digest)
		}
		run := tr.total("campaign.run")
		layers := map[string]float64{
			"spec.compile_s":           tr.total("spec.compile"),
			"experiment.run_s":         run,
			"experiment.render_s":      tr.total("experiment.render"),
			"trace.overhead_ratio":     (run + tr.total("experiment.render")) / median(walls),
			"runtime.allocs_per_vp":    float64(ms.mallocs) / vps,
			"runtime.bytes_per_vp":     float64(ms.bytes) / vps,
			"runtime.gc_cycles":        float64(ms.gcs),
			"runtime.allocs_per_query": float64(ms.mallocs) / float64(snap.Scope("vantage").Counter("queries_sent")),
		}
		for _, f := range families {
			layers["experiment.run_s."+f] = tr.total("experiment.run." + f)
		}
		if err := finishTrace(p, rep, tr, prof, layers, run, snap); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// runTime is when one campaign item's experiment.Run started and ended.
type runTime struct{ start, end time.Time }

func (t runTime) seconds() float64 { return t.end.Sub(t.start).Seconds() }

// runItems runs a campaign as experiment.RunCampaign does (its items in
// order through parallel.ForEachCtx, each by experiment.Run, on workers
// goroutines) and also returns when each item's run started and ended.
func runItems(ctx context.Context, items []experiment.CampaignItem, workers int) ([]experiment.CampaignResult, []runTime, error) {
	results := make([]experiment.CampaignResult, len(items))
	times := make([]runTime, len(items))
	err := parallel.ForEachCtx(ctx, workers, len(items), func(k int) {
		t0 := time.Now()
		out, err := experiment.Run(ctx, items[k].Scenario, items[k].Config)
		times[k] = runTime{t0, time.Now()}
		results[k] = experiment.CampaignResult{Item: items[k], Outcome: out, Err: err}
	})
	return results, times, err
}

// checkCampaign records one campaign pass's correctness (every run
// succeeded, every report invariant holds, and at the paper seed every
// render equals its committed table) and returns the digest of the
// renders.
func checkCampaign(rep *report, results []experiment.CampaignResult, renders, goldens []string) string {
	for _, r := range results {
		rep.attempted++
		if r.Err != nil || r.Outcome == nil {
			rep.failed++
			rep.fail("run %s failed: %v", r.Item.Name, r.Err)
			continue
		}
		if r.Outcome.Report != nil {
			bad := r.Outcome.Report.FailedInvariants()
			for _, inv := range bad {
				rep.fail("run %s: invariant %s: %s", r.Item.Name, inv.Name, inv.Detail)
			}
			rep.failed += int64(len(bad))
		}
	}
	for i, g := range goldens {
		if err := compareGolden(renders[i], g); err != nil {
			rep.fail("%s: %v", campaignSets[i].golden, err)
		}
	}
	return digest(renders...)
}

// campaignTotals returns a campaign's simulated VP count and its merged
// metrics.
func campaignTotals(results []experiment.CampaignResult) (float64, metrics.Snapshot) {
	vps := 0
	var snaps []metrics.Snapshot
	for _, r := range results {
		vps += vpsOf(r.Outcome)
		if r.Outcome != nil && r.Outcome.Report != nil {
			snaps = append(snaps, r.Outcome.Report.Metrics)
		}
	}
	return float64(vps), metrics.MergeSnapshots(snaps...)
}

// vpsOf is the number of VPs a run simulated: ddos and caching runs
// populate VPs, the other families none.
func vpsOf(o *experiment.Outcome) int {
	switch {
	case o == nil:
		return 0
	case o.DDoS != nil:
		return o.DDoS.Table4.VPs
	case o.Caching != nil:
		return o.Caching.Table1.VPs
	}
	return 0
}

// ---- shared ----

// simStats fills the end-to-end metrics of a simulator workload from
// its passes, the host seconds of each experiment.Run call (runSecs)
// and its VPs per host second. max_rate_qps has no measurement of its
// own here (METRICS.md): it is simulated client queries per pass
// second. answered_frac_overload is the share of busy CPU the passes
// spent in Go code rather than in memory management: the simulator
// sheds no load, but allocation pressure takes CPU from the work.
func simStats(rep *report, log passLog, runSecs []float64, setup, vps float64, snap metrics.Snapshot) {
	wall := median(log.walls)
	rep.metrics["setup_s"] = setup
	rep.metrics["wall_s"] = wall
	rep.metrics["vps"] = vps
	rep.metrics["peak_rss_mb"] = median(log.peaks)
	rep.metrics["p50_us"] = percentile(sortedCopy(runSecs), 50) * 1e6
	rep.metrics["p99_us"] = tailOf(runSecs) * 1e6
	rep.metrics["max_rate_qps"] = float64(snap.Scope("vantage").Counter("queries_sent")) / wall
	rep.metrics["answered_frac_overload"] = median(log.userShare)
	rep.note("pass wall s: %v", log.walls)
	rep.note("pass peak RSS MB: %v", log.peaks)
	rep.note("pass share of busy CPU in Go code: %v", log.userShare)
}

// tailOf returns the highest percentile with ten samples beyond it, or
// the upper quartile when there are too few samples for any: the
// maximum of a few passes is set by the one that met a busy spell of
// the host, and moved by 5-21% between runs.
func tailOf(xs []float64) float64 {
	s := sortedCopy(xs)
	if p := tailPercentile(len(s)); p > 0 {
		return percentile(s, p)
	}
	return percentile(s, 75)
}

// simCounts are the exact simulated counts of a run's merged metrics:
// the same seed gives the same values, so any change is a model change.
func simCounts(snap metrics.Snapshot) map[string]float64 {
	c := snap.Scope("cache")
	res := snap.Scope("resolver")
	hits, misses := c.Counter("hits"), c.Counter("misses")
	return map[string]float64{
		"clock.events_fired":           float64(snap.Scope("clock").Counter("events_fired")),
		"netsim.sent":                  float64(snap.Scope("netsim").Counter("sent")),
		"netsim.dropped":               float64(snap.Scope("netsim").Counter("dropped")),
		"cache.hit_ratio":              ratio(hits, hits+misses),
		"resolver.upstream_per_client": ratio(res.Counter("upstream_queries"), res.Counter("client_queries")),
		"resolver.upstream_retries":    float64(res.Counter("upstream_retries")),
		"resolver.stale_serves":        float64(res.Counter("stale_serves")),
		"authoritative.queries":        float64(snap.Scope("authoritative").Counter("queries")),
		"vantage.queries_sent":         float64(snap.Scope("vantage").Counter("queries_sent")),
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// finishTrace completes a simulator workload's per-layer metrics: span
// totals in layers, CPU per module from the profile, the exact counts,
// and zero for the daemon-only layers it does not reach. It writes the
// spans and the profile to the run's output directory.
func finishTrace(p params, rep *report, tr *tracer, prof []byte, layers map[string]float64, runSeconds float64, snap metrics.Snapshot) error {
	for _, d := range perLayer {
		rep.metrics[d.name] = 0
	}
	for k, v := range layers {
		rep.metrics[k] = v
	}
	for k, v := range simCounts(snap) {
		rep.metrics[k] = v
	}
	if ev := rep.metrics["clock.events_fired"]; ev > 0 {
		rep.metrics["clock.host_ns_per_event"] = runSeconds * 1e9 / ev
	}
	return writeTrace(p, rep, tr, prof)
}

// writeTrace buckets the profile into cpu_s.* and stores the spans and
// profile next to the per-layer metrics.
func writeTrace(p params, rep *report, tr *tracer, prof []byte) error {
	samples, err := parseCPUProfile(prof)
	if err != nil {
		return err
	}
	for k, v := range cpuByBucket(samples) {
		rep.metrics["cpu_s."+k] = v
	}
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(p.outDir, "cpu.pprof"), prof, 0o644); err != nil {
		return err
	}
	return tr.write(filepath.Join(p.outDir, "spans.jsonl"))
}

// setupClock times a workload's set-up in batches of repetitions, each
// batch giving one mean. Batches are taken at the start of a run and
// again after every pass, so setup_s (their median) spans the whole run
// instead of its first milliseconds, when the host may happen to be
// busy. The last repetition's state is what the workload keeps.
type setupClock struct {
	batch int
	f     func() error
	means []float64
}

func (c *setupClock) sample() error {
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		for j := 0; j < c.batch; j++ {
			if err := c.f(); err != nil {
				return err
			}
		}
		c.means = append(c.means, time.Since(t0).Seconds()/float64(c.batch))
	}
	return nil
}

func (c *setupClock) median() float64 { return median(c.means) }

// passLog holds each measured pass's host seconds, peak RSS and share
// of busy CPU spent in Go code rather than in memory management.
type passLog struct{ walls, peaks, userShare []float64 }

// measurePasses runs pass (numbered from 1) until seconds have elapsed,
// and at least minPasses times. Each pass starts from a collected heap
// with free memory returned to the OS, so passes are independent. The
// runtime's CPU classes are updated only when a collection ends, so a
// pass's CPU share is read between the collection before it and one
// forced after it.
func measurePasses(seconds float64, minPasses int, setup *setupClock, pass func(n int)) (passLog, error) {
	var log passLog
	start := time.Now()
	for n := 1; n <= minPasses || time.Since(start).Seconds() < seconds; n++ {
		debug.FreeOSMemory()
		user0, mm0 := cpuClasses()
		stop := sampleRSS(100, 5*time.Millisecond)
		t0 := time.Now()
		pass(n)
		log.walls = append(log.walls, time.Since(t0).Seconds())
		log.peaks = append(log.peaks, stop())
		runtime.GC()
		user1, mm1 := cpuClasses()
		log.userShare = append(log.userShare, (user1-user0)/(user1-user0+mm1-mm0))
		if err := setup.sample(); err != nil {
			return passLog{}, err
		}
	}
	return log, nil
}

// cpuClasses returns the runtime's estimates of the CPU seconds spent
// running Go code and spent on memory management (GC and scavenging).
func cpuClasses() (user, mm float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/user:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/scavenge/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() + s[2].Value.Float64()
}

// sampleRSS samples the resident set at the given interval until the
// returned function is called, which returns the p-th percentile (100:
// the highest) of the samples in MB.
func sampleRSS(p float64, every time.Duration) func() float64 {
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		samples := []float64{statusMB("VmRSS:")}
		for {
			select {
			case <-stop:
				samples = append(samples, statusMB("VmRSS:"))
				done <- percentile(sortedCopy(samples), p)
				return
			case <-tick.C:
				samples = append(samples, statusMB("VmRSS:"))
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// memDelta is the allocation work between two MemStats snapshots.
type memDelta struct{ mallocs, bytes, gcs uint64 }

func measureMem(f func()) memDelta {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return memDelta{b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, uint64(b.NumGC - a.NumGC)}
}

// profiled runs f under a CPU profile and returns the profile bytes.
func profiled(f func() error) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := f()
	pprof.StopCPUProfile()
	return buf.Bytes(), err
}

// statusMB reads a kB field of /proc/self/status (VmRSS, VmHWM) in MB.
func statusMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
