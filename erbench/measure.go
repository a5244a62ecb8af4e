package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// minBeyond is the fewest samples a reported percentile must have beyond
// it. A p90 over fewer than 100 samples would rest on a handful of solves
// and move with every scheduler hiccup.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank. It
// reports false when fewer than minBeyond samples lie beyond the quantile.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// minSamples is the smallest sample count percentile accepts for q.
func minSamples(q float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(q*float64(n))) >= minBeyond {
			return n
		}
	}
}

// quantiles returns the p50 and p90 of xs, or an error naming the series
// when it has too few samples for either.
func quantiles(series string, xs []float64) (p50, p90 float64, err error) {
	p50, ok50 := percentile(xs, 0.5)
	p90, ok90 := percentile(xs, 0.9)
	if !ok50 || !ok90 {
		return 0, 0, fmt.Errorf("%s: %d samples, need %d for a p90", series, len(xs), minSamples(0.9))
	}
	return p50, p90, nil
}

// p50Or0 is the median of xs, or 0 when xs has too few samples for one.
// Per-layer series use it: a layer the workload does not exercise is 0.
func p50Or0(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// median returns the middle value of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setupRuns is how many times a run builds its workload; setup_s is the
// median, and only the last build is measured.
const setupRuns = 5

// repeatSetup builds the workload setupRuns times and returns the last build
// with the median build time. Earlier builds are closed and their memory
// returned to the OS before the next one starts, so they do not inflate
// the peak resident set.
func repeatSetup[T any](build func() (T, error), closeFn func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			closeFn(last)
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), nil
}

// closedLoop runs clients closed-loop clients over the inputs 0..n-1 in
// order: each client takes the next index, calls op on it and waits for it
// to return before taking another. With seconds > 0, clients stop taking
// work once seconds have passed and at least minOps ops were taken; with
// seconds == 0 they run every input once. It returns the number of ops run
// (inputs 0..ops-1, all completed) and the wall time until the last one
// finished. Running out of inputs before the time is up is an error.
func closedLoop(clients int, seconds float64, minOps, n int, op func(i int)) (int, time.Duration, error) {
	var next atomic.Int64
	var exhausted atomic.Bool
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if seconds > 0 && time.Now().After(deadline) && next.Load() >= int64(minOps) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					exhausted.Store(seconds > 0)
					return
				}
				op(i)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	ops := int(next.Load())
	if ops > n {
		ops = n
	}
	if exhausted.Load() {
		return ops, wall, fmt.Errorf("all %d generated inputs used before the run ended", n)
	}
	return ops, wall, nil
}

// parallel runs jobs on workers goroutines and returns their errors in job
// order (nil for a job that passed).
func parallel(workers int, jobs []func() error) []error {
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				errs[i] = jobs[i]()
			}
		}()
	}
	wg.Wait()
	return errs
}

// rssPeakMB reads the process's peak resident set (VmHWM) in MiB.
func rssPeakMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}
