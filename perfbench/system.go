package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"triplec/internal/core"
	"triplec/internal/experiments"
	"triplec/internal/frame"
	"triplec/internal/mapping"
	"triplec/internal/metrics"
	"triplec/internal/pipeline"
	"triplec/internal/promote"
	"triplec/internal/sched"
	"triplec/internal/shadow"
	"triplec/internal/slo"
	"triplec/internal/span"
	"triplec/internal/stream"
	"triplec/internal/tasks"
)

// workload is one serving configuration. README.md records why each exists
// and which layers it stresses and bypasses.
type workload struct {
	name       string
	streams    int
	modelCores int
	skipOver   float64 // 0 = the server default
	rebalance  int     // 0 = the server default
	// observed turns on every operational layer: shadow boards, guarded
	// promotion, the SLO tracker, a metrics registry with an in-process
	// scraper, the flight recorder and the mapping optimizer.
	observed bool
}

var workloads = []workload{
	{name: "steady-2x128", streams: 2, modelCores: 8},
	{name: "observed-2x128", streams: 2, modelCores: 8, observed: true},
	{name: "overload-4x128", streams: 4, modelCores: 2, skipOver: 1.2, rebalance: 1},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// renderedFrames is the frames rendered ahead for each stream: the first
// renderedFrames frames of one continuous synthetic sequence, which the
// stream's source cycles through. Rendering every served frame ahead would
// hold hundreds of MB; cycling a fixed set keeps the inputs in memory and out
// of the timed region. 512 frames span about ten contrast bursts, 22 marker
// dropouts and five breathing cycles of the study's sequence.
const renderedFrames = 512

// benchStudy is the 128x128 synthetic-angiography study with the training
// corpus `triplec serve` uses (4 sequences x 60 frames).
func benchStudy() experiments.Study {
	s := experiments.DefaultStudy()
	s.TrainSeqs = 4
	s.TrainFrames = 60
	return s
}

// inputs are the pre-rendered frames of every stream, derived from the seed.
type inputs struct {
	frames   [][]*frame.Frame // [stream][renderedFrames]
	renderNs int64
}

func (in *inputs) count() int { return len(in.frames) * renderedFrames }

// streamSeed is stream s's sequence seed, spaced the way `triplec serve`
// spaces its streams.
func streamSeed(seed uint64, s int) uint64 { return seed + uint64(s)*1013 }

// render draws every stream's frames, one goroutine per stream and at most
// one per host core, so each frame's render time is its own.
func render(study experiments.Study, w workload, seed uint64) (*inputs, error) {
	in := &inputs{frames: make([][]*frame.Frame, w.streams)}
	errs := make([]error, w.streams)
	ns := make([]int64, w.streams)
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for s := range in.frames {
		wg.Add(1)
		sem <- struct{}{}
		go func(s int) {
			defer wg.Done()
			defer func() { <-sem }()
			seq, err := study.Sequence(streamSeed(seed, s))
			if err != nil {
				errs[s] = err
				return
			}
			in.frames[s] = make([]*frame.Frame, renderedFrames)
			for i := range in.frames[s] {
				t0 := time.Now()
				in.frames[s][i], _ = seq.Frame(i)
				ns[s] += int64(time.Since(t0))
			}
		}(s)
	}
	wg.Wait()
	for s := range ns {
		in.renderNs += ns[s]
	}
	return in, errors.Join(errs...)
}

// timedMapper is a sched.Mapper decorator that times every Map call. It is
// installed only in traced invocations.
type timedMapper struct {
	inner sched.Mapper
	calls atomic.Int64
	ns    atomic.Int64
}

func (m *timedMapper) Name() string { return m.inner.Name() }

func (m *timedMapper) Map(totalCores int, demands []sched.StreamDemand, plans []sched.StreamPlan) error {
	t0 := time.Now()
	err := m.inner.Map(totalCores, demands, plans)
	m.ns.Add(int64(time.Since(t0)))
	m.calls.Add(1)
	return err
}

// system is one set-up serving stack plus the load generator's per-stream
// state. Everything the benchmark observes it reaches through public entry
// points: Source closures, engine hooks, the mapper decorator and the
// exported results.
type system struct {
	w        workload
	study    experiments.Study
	in       *inputs
	srv      *stream.Server
	engines  []*pipeline.Engine
	budgetMs float64 // every stream's frame deadline
	recs     []*streamRec
	// base[s] is the global frame index of stream s's next chunk: chunks
	// continue one sequence, so Source(i) serves frame base+i.
	base []int

	// Operational layers (observed workload only).
	boards  []*shadow.Board
	promote *promote.Controller
	slo     *slo.Tracker
	reg     *metrics.Registry
	flight  *span.FlightRecorder
	tmpDir  string

	mapper *timedMapper // nil unless traced

	// Kept for the commit-path replay.
	trainSets [][]core.Observation
	predictor *core.Predictor
}

// setup trains the predictor (and, on observed, the shadow backends) and
// builds engines, managers, boards and the server. It is the span setup_s
// measures; rendering is done before it.
func setup(w workload, study experiments.Study, in *inputs, outDir string, traced bool) (*system, error) {
	sets, err := study.TrainingSets()
	if err != nil {
		return nil, err
	}
	base, err := core.Train(sets, core.TrainConfig{})
	if err != nil {
		return nil, err
	}
	base.ResetOnline()
	sys := &system{
		w: w, study: study, in: in,
		recs:      make([]*streamRec, w.streams),
		base:      make([]int, w.streams),
		trainSets: sets,
		predictor: base,
	}
	names := make([]string, w.streams)
	cfgs := make([]stream.Config, w.streams)
	for s := range cfgs {
		names[s] = fmt.Sprintf("stream%d", s)
		p, err := base.Clone()
		if err != nil {
			return nil, err
		}
		mgr, err := sched.NewManager(p, study.Arch)
		if err != nil {
			return nil, err
		}
		mgr.Sticky = true
		eng, err := study.Engine()
		if err != nil {
			return nil, err
		}
		// The deadline is one frame period at the engine's frame rate, the
		// same for every stream and seed. A budget initialized from each
		// stream's first frame moves with the seed, and on overload the
		// on-time share swung threefold with it.
		sys.budgetMs = 1000 / eng.Config().FrameRate
		sys.engines = append(sys.engines, eng)
		sys.recs[s] = &streamRec{}
		cfgs[s] = stream.Config{
			Name:        names[s],
			Engine:      eng,
			Manager:     mgr,
			Source:      sys.source(s),
			FramePixels: study.FramePixels(),
			BudgetMs:    sys.budgetMs,
		}
		if w.observed {
			backends, err := shadow.TrainBackends(p, sets, core.TrainConfig{})
			if err != nil {
				return nil, err
			}
			board, err := shadow.NewBoard(names[s], backends)
			if err != nil {
				return nil, err
			}
			sys.boards = append(sys.boards, board)
			cfgs[s].Shadow = board
		}
	}

	scfg := stream.ServerConfig{
		ModelCores:     w.modelCores,
		HostWorkers:    runtime.NumCPU(),
		RebalanceEvery: w.rebalance,
		SkipOver:       w.skipOver,
	}
	var mapper sched.Mapper
	if w.observed {
		opt, err := mapping.NewOptimizer(study.Arch)
		if err != nil {
			return nil, err
		}
		mapper = opt
		if sys.promote, err = promote.NewController(promote.Config{Challenger: "auto"}); err != nil {
			return nil, err
		}
		if sys.tmpDir, err = os.MkdirTemp(outDir, "flight-"); err != nil {
			return nil, err
		}
		if sys.flight, err = span.NewFlightRecorder(sys.tmpDir, span.DefaultTriggers()); err != nil {
			return nil, err
		}
		sys.reg = metrics.NewRegistry()
		if _, err := metrics.NewRuntimeMetrics(sys.reg); err != nil {
			return nil, err
		}
		for _, b := range sys.boards {
			if err := b.EnableMetrics(sys.reg); err != nil {
				return nil, err
			}
		}
		sys.slo = slo.NewTracker(slo.Config{Streams: w.streams})
		if err := sys.slo.EnableMetrics(sys.reg, names); err != nil {
			return nil, err
		}
		scfg.Metrics, scfg.Flight, scfg.Promote, scfg.SLO = sys.reg, sys.flight, sys.promote, sys.slo
	}
	if traced {
		if mapper == nil {
			// What the server's nil Mapper runs, made visible to the decorator.
			mapper = &sched.GreedyMapper{}
		}
		sys.mapper = &timedMapper{inner: mapper}
		mapper = sys.mapper
	}
	scfg.Mapper = mapper
	if sys.srv, err = stream.NewServer(scfg, cfgs); err != nil {
		return nil, err
	}
	if sys.promote != nil {
		// After NewServer: the strike counters are named from the attached roster.
		if err := sys.promote.EnableMetrics(sys.reg); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// close removes the flight recorder's dump directory.
func (sys *system) close() {
	if sys.tmpDir != "" {
		os.RemoveAll(sys.tmpDir)
	}
}

// source is stream s's frame source: it stamps the call for the step series
// (and, traced, the call and return events) and serves the pre-rendered frame.
func (sys *system) source(s int) func(int) *frame.Frame {
	frames := sys.in.frames[s]
	return func(i int) *frame.Frame {
		r := sys.recs[s]
		t := now()
		r.steps = append(r.steps, t)
		g := sys.base[s] + i
		f := frames[g%len(frames)]
		if r.traced {
			r.ev = append(r.ev, event{t: t, kind: evSource, frame: int32(g)})
			r.ev = append(r.ev, event{t: now(), kind: evSourceRet, frame: int32(g)})
		}
		return f
	}
}

// setTraced installs or removes the per-task hooks on every engine. Called
// only between Runs, when no serving goroutine owns an engine.
func (sys *system) setTraced(on bool) {
	for s, eng := range sys.engines {
		r := sys.recs[s]
		r.traced = on
		if !on {
			eng.SetTaskHook(nil)
			eng.SetGate(nil)
			if !sys.w.observed {
				eng.SetObserver(nil)
			}
			continue
		}
		eng.SetTaskHook(func(t tasks.Name, frameIdx int) {
			r.ev = append(r.ev, event{t: now(), kind: evTask, task: int8(tasks.IndexOf(t))})
		})
		eng.SetGate(doneGate{r})
		if !sys.w.observed {
			// The observed server's telemetry owns the observer.
			eng.SetObserver(func(pipeline.Report) { r.ev = append(r.ev, event{t: now(), kind: evDone}) })
		}
	}
}

// doneGate is a pass-through pipeline.TaskGate: it allows every task and
// stamps the completion of the gated ones (RDG variants, GW_EXT, ZOOM). ZOOM
// is the last task of a full frame, so its Record closes the frame's task
// work even where the server owns the engine observer.
type doneGate struct{ r *streamRec }

func (doneGate) Allow(tasks.Name) bool { return true }

func (g doneGate) Record(tasks.Name, bool) {
	g.r.ev = append(g.r.ev, event{t: now(), kind: evDone})
}
