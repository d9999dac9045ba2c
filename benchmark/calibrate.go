package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// refCalibrationMs is the calibration time of the reference host. Every
// time the benchmark reports is scaled to a host on which one calibration
// round takes this long.
//
// On a shared 2-vCPU Xeon VM, solves ran up to 30% slower for stretches of
// seconds to minutes, which moved raw latencies between runs by as much.
// Of three loops timed next to a 384-variable solve for five minutes, this
// one tracked those swings best: the coefficient of variation of 10-second
// medians of solve time over loop time was 1.0%, against 9.0% for the raw
// solve time, 2.9% for an integer hash loop and 5.1% for a memory-bound
// loop.
const refCalibrationMs = 2.0

// calibrator times a fixed floating-point loop that calls no program code.
// It is run only while the program is idle, so it measures how fast the
// host runs, not how busy the program keeps it.
type calibrator struct {
	bufs [][]float64
	sums []float64 // keeps each loop's result in use
}

func newCalibrator() *calibrator {
	n := runtime.GOMAXPROCS(0)
	c := &calibrator{bufs: make([][]float64, n), sums: make([]float64, n)}
	for i := range c.bufs {
		c.bufs[i] = make([]float64, 1<<15)
	}
	return c
}

// round runs the loop once on each of GOMAXPROCS goroutines and returns
// the time until all have finished, in milliseconds.
func (c *calibrator) round() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for k := range c.bufs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c.sums[k] += churn(c.bufs[k])
		}(k)
	}
	wg.Wait()
	return ms(time.Since(start))
}

func (c *calibrator) rounds(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = c.round()
	}
	return v
}

// churn makes two passes of Metropolis-style accept tests over a 256 KiB
// buffer: a xorshift draw, an exponential and a data-dependent branch per
// element, the mix of work in an annealing sweep.
func churn(buf []float64) float64 {
	x := uint64(88172645463325252)
	mask := len(buf) - 1
	var s float64
	for r := 0; r < 2; r++ {
		for i := range buf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			u := float64(x>>11) / (1 << 53)
			d := buf[(i*7919)&mask]*0.999 + u
			if math.Exp(-d) > u {
				s += d
			}
			buf[i] = d * 0.5
		}
	}
	return s
}

// timeline is a pass's calibration rounds in the order they were timed,
// each stamped with the time it ended.
type timeline struct {
	at []time.Time
	ms []float64
}

func (tl *timeline) add(ms float64) {
	tl.at = append(tl.at, time.Now())
	tl.ms = append(tl.ms, ms)
}

// scaleOver is the factor that converts times measured between from and
// to into reference-host times: refCalibrationMs over the mean of the last
// round before from and the first round after to.
func (tl *timeline) scaleOver(from, to time.Time) float64 {
	i := sort.Search(len(tl.at), func(i int) bool { return tl.at[i].After(from) }) - 1
	j := sort.Search(len(tl.at), func(j int) bool { return !tl.at[j].Before(to) })
	i, j = max(i, 0), min(j, len(tl.ms)-1)
	return refCalibrationMs / ((tl.ms[i] + tl.ms[j]) / 2)
}

// scale is the factor for times that span the whole pass.
func (tl *timeline) scale() float64 {
	return div(refCalibrationMs, quantile(tl.ms, 0.5))
}
