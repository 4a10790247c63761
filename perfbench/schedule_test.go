package main

import (
	"testing"
	"time"
)

func TestInterleaveKeepsSharesAndMinimums(t *testing.T) {
	const tick = time.Millisecond
	var order []string
	counter := func(name string, share float64, min int) (*activity, *int) {
		n := new(int)
		return &activity{
			share:  share,
			step:   func() error { time.Sleep(tick); *n++; order = append(order, name); return nil },
			enough: func() bool { return *n >= min },
		}, n
	}
	big, nBig := counter("big", 0.75, 1)
	small, nSmall := counter("small", 0.25, 1)
	if err := interleave(time.Now().Add(60*tick), []*activity{big, small}); err != nil {
		t.Fatal(err)
	}
	if *nBig < 2**nSmall {
		t.Errorf("big (share 0.75) ran %d times, small (share 0.25) %d: want about 3:1", *nBig, *nSmall)
	}
	if len(order) < 3 || order[0] == order[1] && order[1] == order[2] {
		t.Errorf("activities did not interleave: %v", order[:min(len(order), 6)])
	}

	// Past the deadline only activities short of their minimum still run.
	late, nLate := counter("late", 1, 4)
	done, nDone := counter("done", 1, 0)
	if err := interleave(time.Now(), []*activity{late, done}); err != nil {
		t.Fatal(err)
	}
	if *nLate != 4 || *nDone != 0 {
		t.Errorf("after the deadline: late ran %d (want 4), done ran %d (want 0)", *nLate, *nDone)
	}
}

func TestParseArgs(t *testing.T) {
	opt, err := parseArgs([]string{"--workload", "offline", "--seed", "7", "--seconds", "3", "--trace", "1"})
	if err != nil || opt.workload != "offline" || opt.seed != 7 || opt.seconds != 3 || !opt.trace {
		t.Fatalf("parseArgs = %+v, %v", opt, err)
	}
	for _, bad := range [][]string{
		{"--trace", "2"},
		{"--seconds", "0"},
		{"extra"},
	} {
		if _, err := parseArgs(bad); err == nil {
			t.Errorf("parseArgs(%v) accepted", bad)
		}
	}
	if _, err := lookupWorkload("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}
