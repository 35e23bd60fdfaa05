package main

import "time"

// The benchmark's only reads of the wall clock: it exists to measure
// elapsed real time.

func now() time.Time {
	//lint:ignore virtclock a benchmark measures elapsed wall time by design
	return time.Now()
}

func since(t time.Time) time.Duration { return now().Sub(t) }

// sleep waits for an open-loop request's due time.
func sleep(d time.Duration) {
	//lint:ignore virtclock the open-loop generator waits on the wall clock for each due time
	time.Sleep(d)
}
