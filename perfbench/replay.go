package main

import (
	"time"

	"triplec/internal/core"
	"triplec/internal/pipeline"
	"triplec/internal/promote"
	"triplec/internal/sched"
	"triplec/internal/shadow"
	"triplec/internal/slo"
)

// replayCost is the mean per-frame cost of each commit-path sink, priced by
// re-driving one stream's recorded reports through the sinks' public entry
// points in the order the serving loop calls them.
type replayCost struct {
	frames                                        int
	planNs, observeNs, shadowNs, sloNs, promoteNs int64
	// Deployed-backend quality on the replay board.
	within25, scored, hits, misses uint64
}

func (c replayCost) us(ns int64) float64 {
	if c.frames == 0 {
		return 0
	}
	return float64(ns) / float64(c.frames) / 1e3
}

// replay prices the commit path over reports (outputs stripped) served with
// the given deadline. The sinks are fresh instances built like the observed
// workload's: a manager around a clone of the trained predictor, a shadow
// board with the trained backends, an auto promotion controller attached to
// both, and a one-stream SLO tracker.
func replay(sys *system, reports []pipeline.Report, budgetMs float64) (replayCost, error) {
	var c replayCost
	p, err := sys.predictor.Clone()
	if err != nil {
		return c, err
	}
	mgr, err := sched.NewManager(p, sys.study.Arch)
	if err != nil {
		return c, err
	}
	mgr.Sticky = true
	mgr.BudgetMs = budgetMs
	backends, err := shadow.TrainBackends(p, sys.trainSets, core.TrainConfig{})
	if err != nil {
		return c, err
	}
	board, err := shadow.NewBoard("replay", backends)
	if err != nil {
		return c, err
	}
	ctl, err := promote.NewController(promote.Config{Challenger: "auto"})
	if err != nil {
		return c, err
	}
	if err := ctl.AttachStream("replay", board, mgr); err != nil {
		return c, err
	}
	tracker := slo.NewTracker(slo.Config{Streams: 1})

	pixels := sys.study.FramePixels()
	var obs core.FrameObs
	var in slo.FrameInput
	for i := range reports {
		rep := &reports[i]
		t0 := time.Now()
		dec := mgr.Plan()
		t1 := time.Now()
		mgr.Observe(core.FromReports(reports[i:i+1], pixels)[0])
		t2 := time.Now()
		core.DenseFromReport(rep, pixels, &obs)
		board.ObserveFrame(&obs)
		t3 := time.Now()
		missed := rep.LatencyMs > mgr.BudgetMs
		in = slo.FrameInput{Stream: 0, Frame: i, LatencyMs: rep.LatencyMs, PredictedMs: dec.PredictedMs, BudgetMs: mgr.BudgetMs}
		tracker.ObserveFrame(&in)
		t4 := time.Now()
		ctl.ObserveServed(0, missed)
		t5 := time.Now()
		c.planNs += int64(t1.Sub(t0))
		c.observeNs += int64(t2.Sub(t1))
		c.shadowNs += int64(t3.Sub(t2))
		c.sloNs += int64(t4.Sub(t3))
		c.promoteNs += int64(t5.Sub(t4))
		c.frames++
	}
	c.addDeployed(board.Snapshot())
	return c, nil
}

// addDeployed folds the deployed backend's scoreboard (slot 0) into the
// quality counts.
func (c *replayCost) addDeployed(snap shadow.BoardSnapshot) {
	if len(snap.Backends) == 0 {
		return
	}
	d := snap.Backends[0]
	c.within25 += d.Total.Within25
	c.scored += d.Total.Count
	c.hits += d.ScenarioHits
	c.misses += d.ScenarioMisses
}
