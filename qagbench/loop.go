package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// lagBound is how late the open-loop dispatcher may hand ops over (p99)
// before the run is marked invalid: past it, the generator rather than the
// server sets the schedule.
const lagBound = 20 * time.Millisecond

// arrivals returns Poisson arrival offsets at rate per second over window.
func arrivals(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return out
		}
		out = append(out, d)
	}
}

// openLoop issues op i at due[i] after its start on one of conns workers.
// Each op's latency is measured from its due time, not from when a worker
// got to it, so a stall is charged to every op scheduled behind it
// (coordinated-omission correction). lag[i] is how late the dispatcher
// handed op i over.
func openLoop(due []time.Duration, conns int, do func(i int) bool) (lat, lag []time.Duration, ok []bool) {
	lat = make([]time.Duration, len(due))
	lag = make([]time.Duration, len(due))
	ok = make([]bool, len(due))
	queue := make(chan int, len(due)) // one slot per op: the dispatcher never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				ok[i] = do(i)
				lat[i] = time.Since(start) - due[i]
			}
		}()
	}
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		lag[i] = time.Since(start) - d
		queue <- i
	}
	close(queue)
	wg.Wait()
	return lat, lag, ok
}

// checkLag reports the dispatcher's lag p99 as bench.gen_lag_p99_ms and
// marks the run invalid when it exceeds lagBound.
func (r *report) checkLag(lag []time.Duration) {
	p99 := percentileMs(lag, 990)
	r.layer["bench.gen_lag_p99_ms"] = p99
	r.linef("generator lag p99 %.3g ms (bound %v)", p99, lagBound)
	if p99 > float64(lagBound)/float64(time.Millisecond) {
		r.invalid = fmt.Sprintf("generator lag p99 %.3g ms exceeds %v", p99, lagBound)
	}
}

// closedLoop sends ops back to back on conns workers, cycling through ops
// 0..n-1, until window has passed. It returns how many ops it sent and how
// many of them failed: the rate the box sustains for that mix.
func closedLoop(n, conns int, window time.Duration, do func(i int) bool) (sent, failed int) {
	var next, fails atomic.Int64
	var wg sync.WaitGroup
	end := time.Now().Add(window)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				if !do(int(next.Add(1)-1) % n) {
					fails.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(next.Load()), int(fails.Load())
}
