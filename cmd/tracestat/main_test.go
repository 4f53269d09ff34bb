package main

import (
	"math"
	"testing"
)

func TestCheckSizing(t *testing.T) {
	for _, c := range []struct {
		mem, ops int
		ok       bool
	}{
		{256, 500000, true},
		{1, 1, true},
		{0, 1000, false},
		{-4, 1000, false},
		{8, 0, false},
		{8, -1000, false},
		{1 << 20, 1000, true},
		{1 << 28, 1000, false},
		{100_000_000_000, 1000, false},
		{math.MaxInt, 1000, false},
	} {
		if err := checkSizing(c.mem, c.ops); (err == nil) != c.ok {
			t.Errorf("checkSizing(%d, %d) = %v, want ok=%v", c.mem, c.ops, err, c.ok)
		}
	}
}
