package main

import "time"

// clock is the time source of the open-loop generator; tests substitute a
// fake one to make a stall deterministic.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop runs op for slots 0..n-1, slot k being due at start +
// k·interval. It sleeps until a slot is due but never skips or re-times
// one: a slot reached late starts at once, so a call that stalls makes
// every slot scheduled behind it late, and op, which is handed the due
// time, counts that wait in the latency it records. It returns each
// slot's lateness, its start minus its due time.
func openLoop(clk clock, start time.Time, n int, interval time.Duration, op func(k int, due time.Time)) []time.Duration {
	late := make([]time.Duration, n)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		late[k] = clk.Now().Sub(due)
		op(k, due)
	}
	return late
}
