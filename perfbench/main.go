// Command perfbench is the serving benchmark: it runs stream.Server on one
// named workload for a fixed time, checks every served output against a
// serial reference, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer split) as one JSON object on its last line. README.md
// describes the workloads, the metrics and how to run it.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"triplec/internal/pipeline"
	"triplec/internal/stats"
	"triplec/internal/stream"
	"triplec/internal/tasks"
)

const (
	// setups is how many times a run sets the system up; setup_s is their
	// median and the last one serves.
	setups = 5
	// chunkFrames is the frames each stream is offered per Server.Run. A run
	// serves consecutive chunks of one sequence; each chunk's results are
	// checked and dropped, which bounds the memory the server's per-frame
	// retention can take.
	chunkFrames = 256
	// warmFrames is the frames per stream of the untimed first Run, which
	// lets caches fill and measures retention. It is long enough that a
	// bound on per-frame retention of a few hundred frames would show.
	warmFrames = 1024
	// scrapeEvery is the observed workload's in-process scrape period.
	scrapeEvery = 50 * time.Millisecond
	// replayFrames caps the reports kept for the commit-path replay.
	replayFrames = 4096
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload workload
	seed     uint64
	seconds  int
	traced   bool
	outDir   string
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: steady-2x128, observed-2x128 or overload-4x128")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 25, "timed serving seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for span files and flight-recorder dumps")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return options{}, err
	}
	if *seconds < 1 {
		return options{}, fmt.Errorf("-seconds %d: need at least 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	return options{workload: w, seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: *out}, nil
}

// chunkStats is one timed Server.Run's measurements, or the sum of several.
type chunkStats struct {
	wallMs                     float64
	offered, processed, misses int
	skipped, lost, serial      int
	cpuNs                      int64
	allocB, mallocs            uint64
	gcs                        uint32
	rebalances                 int
	stepMs                     []float64 // time between consecutive Source calls
}

func (c *chunkStats) add(o chunkStats) {
	c.wallMs += o.wallMs
	c.offered += o.offered
	c.processed += o.processed
	c.misses += o.misses
	c.skipped += o.skipped
	c.lost += o.lost
	c.serial += o.serial
	c.cpuNs += o.cpuNs
	c.allocB += o.allocB
	c.mallocs += o.mallocs
	c.gcs += o.gcs
	c.rebalances += o.rebalances
}

func (c chunkStats) fps() float64 { return float64(c.processed) / (c.wallMs / 1e3) }

func (c chunkStats) cpuMsPerFrame() float64 { return float64(c.cpuNs) / 1e6 / float64(c.processed) }

func sum(cs []chunkStats) chunkStats {
	var t chunkStats
	for _, c := range cs {
		t.add(c)
	}
	return t
}

// blockChunks is how many consecutive chunks of one kind form a block, one
// to two seconds of serving: long enough that the garbage collector's work,
// which lands in some chunks and not in others, is in every block, and that
// a block's step-time p99 has more than ten samples beyond it.
const blockChunks = 4

// blocks groups cs into blocks of blockChunks chunks. A trailing partial
// block counts only when there is no full one.
func blocks(cs []chunkStats) [][]chunkStats {
	var out [][]chunkStats
	for i := 0; i+blockChunks <= len(cs); i += blockChunks {
		out = append(out, cs[i:i+blockChunks])
	}
	if len(out) == 0 && len(cs) > 0 {
		out = append(out, cs)
	}
	return out
}

// worstShare is the share of blocks a host figure leaves out on its worse
// side.
const worstShare = 0.1

// sustained is the level of f that all blocks of cs but the worst tenth
// reach: the 10th percentile of f over the blocks where higher is better,
// the 90th where lower is better. On a shared host, other tenants' load is
// the usual state and slows a block; how many blocks land in the quiet
// spells between their bursts changes from minute to minute and moves the
// median block with it more than the slow side of the blocks (README.md,
// "Spread and bounds").
func sustained(cs []chunkStats, f func([]chunkStats) float64, higherBetter bool) float64 {
	var vals []float64
	for _, blk := range blocks(cs) {
		vals = append(vals, f(blk))
	}
	if higherBetter {
		return percentile(vals, worstShare)
	}
	return percentile(vals, 1-worstShare)
}

func blockFPS(cs []chunkStats) float64 { return sum(cs).fps() }

func blockCPU(cs []chunkStats) float64 { return sum(cs).cpuMsPerFrame() }

// blockStep is a step-time percentile over the chunks of one block.
func blockStep(q float64) func([]chunkStats) float64 {
	return func(cs []chunkStats) float64 {
		var v []float64
		for _, c := range cs {
			v = append(v, c.stepMs...)
		}
		return percentile(v, q)
	}
}

// bench is one run's state.
type bench struct {
	opt              options
	sys              *system
	chk              *checker
	untraced, traced []chunkStats // timed chunks
	retainedKB       float64      // live-heap growth per offered frame across the first Run
	warmProcessed    int          // frames the first Run processed
	modelMs          []float64    // untraced chunks: modeled Report.LatencyMs
	scrapes          []int64      // scrape durations, ns
	tr               tracer
	replay           []pipeline.Report // stream 0's traced reports, outputs stripped
}

func run(args []string) error {
	opt, err := parseOptions(args)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	study := benchStudy()
	in, err := render(study, opt.workload, opt.seed)
	if err != nil {
		return err
	}
	setupS := make([]float64, 0, setups)
	var sys *system
	for k := 0; k < setups; k++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		if sys, err = setup(opt.workload, study, in, opt.outDir, opt.traced); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer sys.close()

	b := &bench{opt: opt, sys: sys, chk: newChecker(opt.workload.streams)}
	if err := b.warm(); err != nil {
		return err
	}
	b.scrapes = b.scrapes[:0]
	deadline := time.Now().Add(time.Duration(opt.seconds) * time.Second)
	for k := 0; k < 4 || time.Now().Before(deadline); k++ {
		traced := opt.traced && k%2 == 1
		c, err := b.chunk(chunkFrames, traced)
		if err != nil {
			return err
		}
		if traced {
			b.traced = append(b.traced, c)
		} else {
			b.untraced = append(b.untraced, c)
		}
	}
	if err := b.chk.verify(sys); err != nil {
		return fmt.Errorf("output check: %w", err)
	}

	env := b.environment(in, setupS)
	var ms []metric
	if opt.traced {
		if ms, err = b.layerMetrics(in); err != nil {
			return err
		}
		if err := b.writeTrace(env, ms); err != nil {
			return err
		}
	} else {
		ms = b.endToEnd(setupS)
	}
	for _, m := range ms {
		fmt.Printf("%-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
	if !opt.traced {
		// The JSON carries the complements of these shares: shed_frac is 0
		// whenever nothing is shed, and deadline_miss_frac, a few percent on
		// steady, swings too much from seed to seed to bound (README.md).
		fmt.Printf("%-32s %14.6g %s\n", "shed_frac", 1-metricValue(ms, "served_frac"), "ratio")
		fmt.Printf("%-32s %14.6g %s\n", "deadline_miss_frac", 1-metricValue(ms, "on_time_frac"), "ratio")
	}
	envJSON, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", envJSON)
	all := sum(b.untraced)
	all.add(sum(b.traced))
	fmt.Println(resultLine(true, all.offered, all.lost, ms))
	return nil
}

// warm serves the untimed first Run and measures the live-heap growth
// across it, after forced collections, with the rendered inputs alive.
func (b *bench) warm() error {
	var m0, m1 runtime.MemStats
	b.sys.setTraced(false)
	// Two collections: the second frees what the first moved into sync.Pool
	// victim caches.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	res, err := b.serve(warmFrames)
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	offered := 0
	for _, r := range res.Streams {
		offered += r.Stats.Offered
		b.warmProcessed += r.Stats.Processed
	}
	b.retainedKB = float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / 1024 / float64(offered)
	err = b.fold(res, warmFrames, false, 0)
	b.modelMs = b.modelMs[:0] // modeled figures cover the timed chunks only
	return err
}

// serve runs n frames per stream in one Server.Run, with the scraper
// running on the observed workload.
func (b *bench) serve(n int) (stream.RunResult, error) {
	for _, r := range b.sys.recs {
		r.reset()
	}
	stopScraper := b.startScraper()
	res, err := b.sys.srv.Run(n)
	return res, errors.Join(err, stopScraper())
}

// chunk serves one timed chunk and folds its results.
func (b *bench) chunk(n int, traced bool) (chunkStats, error) {
	var m0, m1 runtime.MemStats
	b.sys.setTraced(traced)
	runtime.ReadMemStats(&m0)
	cpu0 := cpuNs()
	runStart := now()
	res, err := b.serve(n)
	cpu1 := cpuNs()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return chunkStats{}, err
	}
	c := chunkStats{
		wallMs:     res.WallMs,
		cpuNs:      cpu1 - cpu0,
		allocB:     m1.TotalAlloc - m0.TotalAlloc,
		mallocs:    m1.Mallocs - m0.Mallocs,
		gcs:        m1.NumGC - m0.NumGC,
		rebalances: res.Rebalances,
	}
	for s, r := range res.Streams {
		if !traced {
			steps := b.sys.recs[s].steps
			for k := 1; k < len(steps); k++ {
				c.stepMs = append(c.stepMs, float64(steps[k]-steps[k-1])/1e6)
			}
		}
		st := r.Stats
		c.offered += st.Offered
		c.processed += st.Processed
		c.skipped += st.Skipped
		c.lost += st.Failed + st.Abandoned
		c.serial += st.SerialFallbacks
		c.misses += st.DeadlineMisses
	}
	return c, b.fold(res, n, traced, runStart)
}

// fold checks a Run's outputs and frame accounting, records its step and
// model-latency series (untraced) or its spans (traced), and advances the
// streams' sequences.
func (b *bench) fold(res stream.RunResult, n int, traced bool, runStart int64) error {
	sys := b.sys
	if err := b.chk.fold(res, sys.base, n); err != nil {
		return err
	}
	for s, r := range res.Streams {
		if traced {
			b.tr.derive(s, sys.recs[s].ev, runStart)
			if s == 0 {
				for _, rep := range r.Reports {
					if len(b.replay) < replayFrames {
						rep.Output = nil
						b.replay = append(b.replay, rep)
					}
				}
			}
		} else {
			for _, rep := range r.Reports {
				b.modelMs = append(b.modelMs, rep.LatencyMs)
			}
		}
		sys.base[s] += n
	}
	return nil
}

// startScraper starts the observed workload's in-process scraper: every
// scrapeEvery it renders the registry in Prometheus text format and serves
// /healthz into a recorder. The returned stop function waits for it.
func (b *bench) startScraper() (stop func() error) {
	sys := b.sys
	if sys.reg == nil {
		return func() error { return nil }
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var scrapeErr error
	var durs []int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		health := sys.srv.HealthHandler()
		var buf bytes.Buffer
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			t0 := now()
			buf.Reset()
			if err := sys.reg.WritePrometheus(&buf); err != nil {
				scrapeErr = fmt.Errorf("scrape /metrics: %w", err)
				return
			}
			rec := httptest.NewRecorder()
			health.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
			if rec.Code != 200 {
				scrapeErr = fmt.Errorf("scrape /healthz: status %d", rec.Code)
				return
			}
			durs = append(durs, now()-t0)
		}
	}()
	return func() error {
		close(done)
		wg.Wait()
		b.scrapes = append(b.scrapes, durs...)
		return scrapeErr
	}
}

// cpuNs is the process's user+system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

type metric struct {
	name  string
	value float64
	unit  string
}

func metricValue(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// endToEnd computes the end-to-end metrics over the timed chunks.
func (b *bench) endToEnd(setupS []float64) []metric {
	u := sum(b.untraced)
	return []metric{
		{"host_fps", sustained(b.untraced, blockFPS, true), "frames/s"},
		{"host_step_p50_ms", sustained(b.untraced, blockStep(0.50), false), "ms"},
		{"host_step_p99_ms", sustained(b.untraced, blockStep(0.99), false), "ms"},
		{"cpu_ms_per_frame", sustained(b.untraced, blockCPU, false), "ms"},
		{"setup_s", median(setupS), "s"},
		{"retained_kb_per_frame", b.retainedKB, "KB"},
		{"served_frac", ratio(u.processed, u.offered), "ratio"},
		{"on_time_frac", ratio(u.processed-u.misses, u.offered), "ratio"},
		{"model_latency_p50_ms", percentile(b.modelMs, 0.50), "ms"},
		{"model_latency_p99_ms", percentile(b.modelMs, 0.99), "ms"},
	}
}

// layerMetrics computes the per-layer split: spans from the traced chunks,
// runtime counters from the untraced ones, sink costs from the replay.
func (b *bench) layerMetrics(in *inputs) ([]metric, error) {
	sys := b.sys
	u, t := sum(b.untraced), sum(b.traced)
	// Counts are rates per frame, so that a run which serves more frames in
	// its --seconds does not read worse. Counters that live as long as the
	// system (mapper, flight recorder, promotion, SLO pages) are divided by
	// every frame it processed, the untimed first Run included.
	lifetime := b.warmProcessed + u.processed + t.processed
	sums := b.tr.sums
	perFrame := func(ns int64) float64 { return float64(ns) / 1e6 / float64(sums.frames) }
	var ms []metric
	for i, t := range tasks.AllNames() {
		ms = append(ms,
			metric{"tasks." + string(t) + ".ms_per_frame", perFrame(sums.taskNs[i]), "ms"},
			metric{"tasks." + string(t) + ".runs", ratio(sums.taskRuns[i], sums.frames), "1/frame"})
	}
	ms = append(ms,
		metric{"parallel.pool_wait_ms", perFrame(sums.poolWaitNs), "ms"},
		metric{"stream.tail_ms", perFrame(sums.tailSelfNs), "ms"},
		metric{"stream.skip_frac", ratio(t.skipped, t.offered), "ratio"},
		metric{"stream.serial_frac", ratio(t.serial, t.processed), "ratio"},
		metric{"stream.rebalances", perKFrame(int64(t.rebalances), t.processed), "1/kframe"},
	)
	var mapCalls, mapNs int64
	if sys.mapper != nil {
		mapCalls, mapNs = sys.mapper.calls.Load(), sys.mapper.ns.Load()
	}
	ms = append(ms,
		metric{"sched.map_us_per_call", nsPer(mapNs, mapCalls) / 1e3, "us"},
		metric{"sched.map_calls", perKFrame(mapCalls, lifetime), "1/kframe"},
	)

	rc, err := replay(sys, b.replay, sys.budgetMs)
	if err != nil {
		return nil, fmt.Errorf("commit-path replay: %w", err)
	}
	if len(sys.boards) > 0 {
		// Live boards: the deployed predictor's quality as served.
		rc.within25, rc.scored, rc.hits, rc.misses = 0, 0, 0, 0
		for _, bd := range sys.boards {
			rc.addDeployed(bd.Snapshot())
		}
	}
	ms = append(ms,
		metric{"core.plan_us", rc.us(rc.planNs), "us"},
		metric{"core.observe_us", rc.us(rc.observeNs), "us"},
		metric{"shadow.observe_us", rc.us(rc.shadowNs), "us"},
		metric{"slo.observe_us", rc.us(rc.sloNs), "us"},
		metric{"promote.observe_us", rc.us(rc.promoteNs), "us"},
		metric{"core.within25_frac", ratio64(rc.within25, rc.scored), "ratio"},
		metric{"core.scenario_hit_frac", ratio64(rc.hits, rc.hits+rc.misses), "ratio"},
	)

	var scrapeNs int64
	for _, d := range b.scrapes {
		scrapeNs += d
	}
	dumps, transitions, pages := 0, 0, uint64(0)
	if sys.flight != nil {
		dumps = len(sys.flight.Dumps())
	}
	if sys.promote != nil {
		transitions = sys.promote.Status().Transitions
	}
	if sys.slo != nil {
		for _, s := range sys.slo.Status(false).SLOs {
			pages += s.Pages
		}
	}
	ms = append(ms,
		metric{"metrics.scrape_ms", nsPer(scrapeNs, int64(len(b.scrapes))) / 1e6, "ms"},
		metric{"metrics.scrapes", perKFrame(int64(len(b.scrapes)), u.processed+t.processed), "1/kframe"},
		metric{"span.dumps", perKFrame(int64(dumps), lifetime), "1/kframe"},
		metric{"promote.transitions", perKFrame(int64(transitions), lifetime), "1/kframe"},
		metric{"slo.pages", perKFrame(int64(pages), lifetime), "1/kframe"},
		metric{"go.alloc_kb_per_frame", float64(u.allocB) / 1024 / float64(u.processed), "KB"},
		metric{"go.mallocs_per_frame", float64(u.mallocs) / float64(u.processed), "count"},
		metric{"go.gc_cycles", perKFrame(int64(u.gcs), u.processed), "1/kframe"},
		metric{"synth.render_ms_per_frame", float64(in.renderNs) / 1e6 / float64(in.count()), "ms"},
		metric{"trace.closure_frac", float64(sums.coveredNs) / float64(sums.windowNs), "ratio"},
		metric{"trace.stamped_frac", float64(sums.stampedNs) / float64(sums.windowNs), "ratio"},
		metric{"trace.overhead_frac", 1 - sustained(b.traced, blockFPS, true)/sustained(b.untraced, blockFPS, true), "ratio"},
	)
	return ms, nil
}

// environment stamps a result with where and how it was measured.
func (b *bench) environment(in *inputs, setupS []float64) map[string]any {
	// The host step percentiles are taken per block; the smallest block
	// bounds the samples behind each.
	stepSamples := 0
	for i, blk := range blocks(b.untraced) {
		n := 0
		for _, c := range blk {
			n += len(c.stepMs)
		}
		if i == 0 || n < stepSamples {
			stepSamples = n
		}
	}
	return map[string]any{
		"cpu_model":                   cpuModel(),
		"nproc":                       runtime.NumCPU(),
		"gomaxprocs":                  runtime.GOMAXPROCS(0),
		"go_version":                  runtime.Version(),
		"git_commit":                  gitCommit(),
		"workload":                    b.opt.workload.name,
		"seed":                        b.opt.seed,
		"seconds":                     b.opt.seconds,
		"trace":                       b.opt.traced,
		"chunk_frames":                chunkFrames,
		"untraced_chunks":             len(b.untraced),
		"traced_chunks":               len(b.traced),
		"setups":                      len(setupS),
		"rendered_frames":             in.count(),
		"host_step_samples_per_block": stepSamples,
		"model_latency_samples":       len(b.modelMs),
		"traced_steps":                b.tr.sums.frames,
		"replay_frames":               len(b.replay),
		"scrapes":                     len(b.scrapes),
	}
}

// writeTrace writes the traced run's spans and its stamped metrics.
func (b *bench) writeTrace(env map[string]any, ms []metric) error {
	dir := filepath.Join(b.opt.outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.opt.workload.name, b.opt.seed))
	if err := b.tr.write(base + "-spans.csv"); err != nil {
		return err
	}
	vals := make(map[string]float64, len(ms))
	for _, m := range ms {
		vals[m.name] = m.value
	}
	out, err := json.MarshalIndent(map[string]any{"env": env, "metrics": vals}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", out, 0o644)
}

// resultLine renders the final JSON object with the metrics in order.
func resultLine(correct bool, attempted, failed int, ms []metric) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, correct, attempted, failed)
	for i, m := range ms {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, `%q: {"value": %s, "unit": %q}`, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	sb.WriteString("}}")
	return sb.String()
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the VCS revision the Go toolchain stamped into the binary,
// or "unknown" when it was built outside a git checkout.
func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ratio64(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perKFrame is count per 1000 frames.
func perKFrame(count int64, frames int) float64 {
	if frames == 0 {
		return 0
	}
	return 1000 * float64(count) / float64(frames)
}

func nsPer(ns, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is the q-quantile (0..1) of v, interpolated between the
// closest ranks; 0 for no samples.
func percentile(v []float64, q float64) float64 {
	p, err := stats.Percentile(v, 100*q)
	if err != nil {
		return 0
	}
	return p
}
