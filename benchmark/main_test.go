package main

import (
	"testing"
	"time"
)

func TestMoreRuns(t *testing.T) {
	const s = time.Second
	for _, c := range []struct {
		name                        string
		n                           int
		elapsed, last, budget, left time.Duration
		want                        bool
	}{
		{"first round starts however late", 0, 40 * s, 0, 25 * s, 100 * s, true},
		{"first round needs time left", 0, 170 * s, 0, 25 * s, 0, false},
		{"inside the budget", 2, 10 * s, 4 * s, 25 * s, 150 * s, true},
		{"ends half a round past the budget", 5, 23 * s, 4 * s, 25 * s, 140 * s, true},
		{"would end more than half a round past the budget", 5, 24 * s, 4 * s, 25 * s, 140 * s, false},
		{"budget past the hard limit: room for one more", 30, 150 * s, 5 * s, 300 * s, 6 * s, true},
		{"budget past the hard limit: no room for another", 31, 155 * s, 5 * s, 300 * s, 5 * s, false},
		{"budget past the hard limit: deadline passed", 33, 171 * s, 5 * s, 300 * s, -s, false},
	} {
		if got := moreRuns(c.n, c.elapsed, c.last, c.budget, c.left); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}
