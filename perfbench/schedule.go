package main

import "time"

// activity is one kind of timed operation. The run interleaves its
// activities, each getting its share of the measuring time, so every metric
// samples the whole run rather than one stretch of it: a host slowdown
// lasting a few seconds then moves every metric a little instead of one a
// lot.
type activity struct {
	share float64
	spent time.Duration
	// step performs one timed operation.
	step func() error
	// enough reports whether the activity has its minimum sample count.
	enough func() bool
}

// interleave repeatedly steps the activity furthest behind its share until
// the deadline has passed and every activity has enough samples. After the
// deadline only activities short of their minimum run.
func interleave(deadline time.Time, acts []*activity) error {
	for {
		late := !time.Now().Before(deadline)
		var next *activity
		for _, a := range acts {
			if late && a.enough() {
				continue
			}
			if next == nil || a.spent.Seconds()/a.share < next.spent.Seconds()/next.share {
				next = a
			}
		}
		if next == nil {
			return nil
		}
		t0 := time.Now()
		if err := next.step(); err != nil {
			return err
		}
		next.spent += time.Since(t0)
	}
}
