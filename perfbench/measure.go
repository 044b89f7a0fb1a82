package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the p-quantile of xs by linear interpolation between
// the closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || s[lo] == s[hi] {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailPercentiles are the candidates for a tail figure, highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// tail returns the highest candidate percentile of xs with at least ten
// samples beyond it, and that percentile's label (p50 when even p75 has
// fewer than ten).
func tail(xs []float64) (float64, string) {
	n := float64(len(xs))
	for _, p := range tailPercentiles {
		if n*(1-p) >= 10 {
			return quantile(xs, p), "p" + strconv.FormatFloat(p*100, 'f', -1, 64)
		}
	}
	return quantile(xs, 0.5), "p50"
}

// heapSampler records the peak live Go heap of this process while it
// runs, above the live heap at its start. Live means marked reachable by
// the latest collection: the heap in use between collections also holds
// garbage up to the collector's goal (twice the live heap by default), so
// its peak moves with collection timing rather than with what the
// program keeps. It reads runtime/metrics, which does not stop the
// world, so sampling does not stall the in-process index whose latencies
// are measured.
type heapSampler struct {
	base uint64 // live heap when sampling started
	mu   sync.Mutex
	peak uint64
	once sync.Once
	stop chan struct{}
	done chan struct{}
}

// heapBytes is the heap the latest collection marked live.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapSampler runs a collection, takes the live heap as the
// baseline (the benchmark's own inputs, generated before the call), and
// samples every period until Stop.
func startHeapSampler(every time.Duration) *heapSampler {
	runtime.GC()
	h := &heapSampler{base: heapBytes(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	v := heapBytes()
	h.mu.Lock()
	h.peak = max(h.peak, v)
	h.mu.Unlock()
}

// Stop ends sampling and returns the peak heap above the baseline and
// the baseline, both in MiB. It may be called more than once.
func (h *heapSampler) Stop() (peak, base float64) {
	h.once.Do(func() { close(h.stop) })
	<-h.done
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(max(h.peak, h.base)-h.base) / (1 << 20), float64(h.base) / (1 << 20)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// peakRSSMiB reads a process's peak resident set (VmHWM) from /proc.
func peakRSSMiB(pid int) (float64, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// loopResult is what one open-loop phase measured.
type loopResult struct {
	Rate      float64   // offered ops/s
	Issued    int       // ops started
	Completed int       // ops that returned without error
	Errors    int       // ops that returned an error
	LatUS     []float64 // completed ops, from due time to completion
	LateUS    []float64 // generator lateness at dispatch
	Backlog   int       // ops queued, not started, when the schedule ended
	Achieved  float64   // completed ops per second of the phase
}

// openLoop issues n = rate·dur ops on a fixed schedule, op i due at
// start + i/rate, regardless of how earlier ops fare. workers execute
// them; an op that finds every worker busy waits in the queue and its
// latency still counts from its due time.
func openLoop(ctx context.Context, rate float64, dur time.Duration, workers int, op func(ctx context.Context, i int, due time.Time) error) loopResult {
	n := int(math.Round(rate * dur.Seconds()))
	res := loopResult{Rate: rate}
	if n == 0 {
		return res
	}
	start := time.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / rate * float64(time.Second))) }
	jobs := make(chan int, n) // sized to the number of sends: dispatch never blocks
	var mu sync.Mutex
	var wg sync.WaitGroup
	var lastEnd time.Time
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				err := op(ctx, i, due(i))
				end := time.Now()
				mu.Lock()
				res.Issued++
				if err != nil {
					res.Errors++
				} else {
					res.Completed++
					res.LatUS = append(res.LatUS, float64(end.Sub(due(i)).Nanoseconds())/1e3)
				}
				lastEnd = end
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		d := due(i)
		if wait := time.Until(d); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
			case <-t.C:
			}
		}
		res.LateUS = append(res.LateUS, float64(time.Since(d).Nanoseconds())/1e3)
		jobs <- i
	}
	res.Backlog = len(jobs)
	close(jobs)
	wg.Wait()
	if res.Completed > 0 {
		res.Achieved = float64(res.Completed) / lastEnd.Sub(start).Seconds()
	}
	return res
}

// ladderRung is one rung's verdict.
type ladderRung struct {
	loop  loopResult
	p90MS float64
	pass  bool
}

// runLadder finds the highest open-loop rate whose p90 latency, timed
// from each request's due time, stays within limitMS. It runs the rates
// in order, each for rungDur, until two rungs in a row fail, so that one
// stall of the host does not end the ladder. Every rung drains its
// backlog, so a growing backlog shows as a p90 beyond the limit; a
// failed request counts as beyond it. The estimate interpolates
// linearly in p90 between the highest passing rung and the failing rung
// after it (rate 0 with p90 0 stands below the first rung); with no
// failing rung above the highest passing one it is that rung's achieved
// rate.
func runLadder(ctx context.Context, rates []float64, rungDur time.Duration, workers int, limitMS float64, op func(ctx context.Context, i int, due time.Time) error) ([]ladderRung, float64) {
	var rungs []ladderRung
	offset, fails := 0, 0
	for _, r := range rates {
		base := offset
		lr := openLoop(ctx, r, rungDur, workers, func(ctx context.Context, i int, due time.Time) error { return op(ctx, base+i, due) })
		offset += lr.Issued
		lat := slices.Clone(lr.LatUS)
		for range lr.Errors {
			lat = append(lat, math.Inf(1))
		}
		rung := ladderRung{loop: lr, p90MS: quantile(lat, 0.90) / 1e3}
		rung.pass = rung.p90MS <= limitMS
		rungs = append(rungs, rung)
		if rung.pass {
			fails = 0
		} else {
			fails++
		}
		if fails == 2 {
			break
		}
	}
	best := -1
	for i, r := range rungs {
		if r.pass {
			best = i
		}
	}
	if best == len(rungs)-1 {
		return rungs, rungs[best].loop.Achieved
	}
	var prevRate, prevP90 float64
	if best >= 0 {
		prevRate, prevP90 = rungs[best].loop.Rate, rungs[best].p90MS
	}
	next := rungs[best+1]
	if math.IsInf(next.p90MS, 1) {
		return rungs, prevRate
	}
	frac := (limitMS - prevP90) / (next.p90MS - prevP90)
	return rungs, prevRate + (next.loop.Rate-prevRate)*frac
}
