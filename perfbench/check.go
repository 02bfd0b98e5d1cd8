package main

import (
	"fmt"
	"runtime"
	"sync"

	"triplec/internal/pipeline"
	"triplec/internal/stream"
)

// digest is an order-sensitive FNV-1a digest of committed output frames.
type digest uint64

const fnvOffset digest = 14695981039346656037

func (d *digest) mix(v uint64) {
	*d ^= digest(v)
	*d *= 1099511628211
}

func (d *digest) observe(r pipeline.Report) {
	d.mix(uint64(r.Index))
	if r.Output == nil {
		d.mix(0xdead)
		return
	}
	b := r.Output.Bounds
	d.mix(uint64(b.Width()))
	d.mix(uint64(b.Height()))
	for y := b.Y0; y < b.Y1; y++ {
		for _, px := range r.Output.Row(y) {
			d.mix(uint64(px))
		}
	}
}

// checker folds every chunk's served outputs and remembers which frames each
// stream processed, for the serial reference after the timed region.
type checker struct {
	digests   []digest
	processed [][]int // global frame indices, in serving order
}

func newChecker(streams int) *checker {
	c := &checker{digests: make([]digest, streams), processed: make([][]int, streams)}
	for i := range c.digests {
		c.digests[i] = fnvOffset
	}
	return c
}

// fold checks one chunk's frame accounting and folds its outputs. base is
// the global index of each stream's first frame in the chunk, n the frames
// offered per stream.
func (c *checker) fold(res stream.RunResult, base []int, n int) error {
	for s, r := range res.Streams {
		st := r.Stats
		if r.Err != nil {
			return fmt.Errorf("stream %d: %w", s, r.Err)
		}
		if st.Offered != n || st.Offered != st.Processed+st.Skipped+st.Failed+st.Abandoned {
			return fmt.Errorf("stream %d: frame accounting: offered %d (want %d) != processed %d + skipped %d + failed %d + abandoned %d",
				s, st.Offered, n, st.Processed, st.Skipped, st.Failed, st.Abandoned)
		}
		if len(r.Reports) != st.Processed {
			return fmt.Errorf("stream %d: %d reports for %d processed frames", s, len(r.Reports), st.Processed)
		}
		lost := make([][]float64, 3)
		for k, col := range []string{"skipped", "failed", "abandoned"} {
			v, err := r.Trace.Get(col)
			if err != nil {
				return err
			}
			if len(v) != n {
				return fmt.Errorf("stream %d: trace has %d rows for %d offered frames", s, len(v), n)
			}
			lost[k] = v
		}
		before := len(c.processed[s])
		for i := 0; i < n; i++ {
			if lost[0][i] == 0 && lost[1][i] == 0 && lost[2][i] == 0 {
				c.processed[s] = append(c.processed[s], base[s]+i)
			}
		}
		if got := len(c.processed[s]) - before; got != st.Processed {
			return fmt.Errorf("stream %d: trace marks %d frames processed, stats say %d", s, got, st.Processed)
		}
		for _, rep := range r.Reports {
			c.digests[s].observe(rep)
		}
	}
	return nil
}

// verify re-runs every stream's processed frames, in order, through a fresh
// serial engine and compares the output digests.
func (c *checker) verify(sys *system) error {
	errs := make([]error, len(c.digests))
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for s := range c.digests {
		wg.Add(1)
		sem <- struct{}{}
		go func(s int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[s] = c.verifyStream(sys, s)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) verifyStream(sys *system, s int) error {
	eng, err := sys.study.Engine()
	if err != nil {
		return err
	}
	ref := fnvOffset
	eng.SetObserver(ref.observe)
	frames := sys.in.frames[s]
	for _, g := range c.processed[s] {
		if _, err := eng.Process(frames[g%len(frames)], nil); err != nil {
			return fmt.Errorf("stream %d: reference frame %d: %w", s, g, err)
		}
	}
	if ref != c.digests[s] {
		return fmt.Errorf("stream %d: output digest %016x != serial reference %016x over %d frames",
			s, uint64(c.digests[s]), uint64(ref), len(c.processed[s]))
	}
	return nil
}
