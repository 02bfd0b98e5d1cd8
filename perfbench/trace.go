package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"triplec/internal/tasks"
)

var epoch = time.Now()

// now is the benchmark clock: monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(epoch)) }

type evKind uint8

const (
	evSource    evKind = iota // Source called
	evSourceRet               // Source returned
	evTask                    // task hook: a task starts
	evDone                    // gate Record or engine observer: task work ended
)

type event struct {
	t     int64
	kind  evKind
	task  int8
	frame int32 // global frame index (source events only)
}

// streamRec is one stream's load-generator record for the current chunk.
// Source runs on the stream's serving goroutine and the engine hooks on the
// pool worker executing its frame; the pool hand-off orders the two, so one
// unlocked buffer per stream is race-free.
type streamRec struct {
	traced bool
	steps  []int64 // Source call times
	ev     []event // traced chunks only
}

func (r *streamRec) reset() {
	r.steps = r.steps[:0]
	r.ev = r.ev[:0]
}

// Span names. A step runs from one Source call to the next on a stream and
// is tiled by source, pool_wait, the tasks and the tail; the frame's last
// task is nested in the tail.
const (
	spStep = iota
	spSource
	spPoolWait
	spTail
	spTask0 // + tasks.IndexOf
)

func spanName(n int) string {
	switch n {
	case spStep:
		return "step"
	case spSource:
		return "source"
	case spPoolWait:
		return "parallel.pool_wait"
	case spTail:
		return "stream.tail"
	}
	return "task." + string(tasks.AllNames()[n-spTask0])
}

type spanRec struct {
	parent     int32
	stream     int16
	name       int16
	frame      int32
	start, end int64
}

// layerSums accumulates the traced chunks' per-layer time.
type layerSums struct {
	frames    int   // traced steps (processed frames)
	windowNs  int64 // per-stream serving time: Run start to the stream's last event
	coveredNs int64 // time tiled by top-level layer spans
	// stampedNs is the part of coveredNs whose spans end at an event that
	// marks the layer's own end: the Source return, a task hook, a gate
	// Record or the engine observer. The tail and a last task with no
	// completion stamp only fill the gap to the next Source call.
	stampedNs  int64
	sourceNs   int64
	poolWaitNs int64
	tailSelfNs int64 // tail minus its nested last task
	taskNs     [tasks.NumNames]int64
	taskRuns   [tasks.NumNames]int
}

// tracer turns the recorded events into spans and layer sums.
type tracer struct {
	sums  layerSums
	spans []spanRec
}

func (tr *tracer) add(stream int, name int, parent int32, frame int32, start, end int64) int32 {
	id := int32(len(tr.spans))
	tr.spans = append(tr.spans, spanRec{parent: parent, stream: int16(stream), name: int16(name), frame: frame, start: start, end: end})
	return id
}

// derive folds one stream's events of a traced chunk that started at runStart.
func (tr *tracer) derive(stream int, ev []event, runStart int64) {
	if len(ev) == 0 {
		return
	}
	tr.sums.windowNs += ev[len(ev)-1].t - runStart
	for i := 0; i < len(ev); {
		j := i + 1
		for j < len(ev) && ev[j].kind != evSource {
			j++
		}
		if ev[i].kind == evSource {
			// A step ends at the next Source call; a chunk's last step ends
			// at the stream's last event.
			end := ev[j-1].t
			if j < len(ev) {
				end = ev[j].t
			}
			tr.step(stream, ev[i:j], end)
		}
		i = j
	}
}

// step emits the spans of one step; fr[0] is its Source call.
func (tr *tracer) step(stream int, fr []event, end int64) {
	f := fr[0].frame
	root := tr.add(stream, spStep, -1, f, fr[0].t, end)
	tr.sums.frames++
	top := func(name int, from, to int64) int32 {
		tr.sums.coveredNs += to - from
		return tr.add(stream, name, root, f, from, to)
	}
	cursor := fr[0].t
	lastHook := -1
	for k, e := range fr {
		switch e.kind {
		case evSourceRet:
			top(spSource, cursor, e.t)
			tr.sums.sourceNs += e.t - cursor
			tr.sums.stampedNs += e.t - cursor
			cursor = e.t
		case evTask:
			if lastHook < 0 {
				top(spPoolWait, cursor, e.t)
				tr.sums.poolWaitNs += e.t - cursor
				tr.sums.stampedNs += e.t - cursor
			} else {
				// Tasks of a frame run one after another, so the next hook
				// stamps the end of this task.
				tr.sums.coveredNs += e.t - fr[lastHook].t
				tr.sums.stampedNs += e.t - fr[lastHook].t
				tr.task(stream, root, f, fr[lastHook], e.t)
			}
			cursor = e.t
			lastHook = k
		}
	}
	if lastHook < 0 {
		top(spPoolWait, cursor, end)
		tr.sums.poolWaitNs += end - cursor
		return
	}
	// The last task ends at the first completion stamp after its hook; where
	// there is none it runs to the end of the step.
	taskEnd := end
	for _, e := range fr[lastHook+1:] {
		if e.kind == evDone {
			taskEnd = e.t
			tr.sums.stampedNs += taskEnd - fr[lastHook].t
			break
		}
	}
	tail := top(spTail, fr[lastHook].t, end)
	tr.task(stream, tail, f, fr[lastHook], taskEnd)
	tr.sums.tailSelfNs += end - taskEnd
}

func (tr *tracer) task(stream int, parent, frame int32, hook event, end int64) {
	tr.add(stream, spTask0+int(hook.task), parent, frame, hook.t, end)
	tr.sums.taskNs[hook.task] += end - hook.t
	tr.sums.taskRuns[hook.task]++
}

// write stores every span as CSV: id,parent,stream,frame,name,start_ns,end_ns.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,stream,frame,name,start_ns,end_ns")
	for id, s := range tr.spans {
		fmt.Fprintf(w, "%d,%d,%d,%d,%s,%d,%d\n", id, s.parent, s.stream, s.frame, spanName(int(s.name)), s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
