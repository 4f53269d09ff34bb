package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		only                          string
		trials, density, jobs, shards int
		want                          []string
		errHas                        string // non-empty: an error naming it
	}{
		{"", 30, 8, 0, 1, nil, ""},
		{"figure11, shadow", 1, 1, 4, 0, []string{"figure11", "shadow"}, ""},
		{"host,walkprof", 30, 8, 0, 4, []string{"host", "walkprof"}, ""},
		{"bogus", 30, 8, 0, 1, nil, "valid: figure1, "},
		{"figure1,", 30, 8, 0, 1, nil, `""`},
		{"", -5, 8, 0, 1, nil, "-fig13-trials"},
		{"", 0, 8, 0, 1, nil, "-fig13-trials"},
		{"", 30, -3, 0, 1, nil, "-density"},
		{"", 30, 0, 0, 1, nil, "-density"},
		{"", 30, 8, -1, 1, nil, "-j"},
		{"", 30, 8, 0, -2, nil, "-shards"},
	} {
		got, err := checkFlags(c.only, c.trials, c.density, c.jobs, c.shards)
		if c.errHas != "" {
			if err == nil || !strings.Contains(err.Error(), c.errHas) {
				t.Errorf("checkFlags(%q, %d, %d, %d, %d) = %v, want an error naming %s",
					c.only, c.trials, c.density, c.jobs, c.shards, err, c.errHas)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("checkFlags(%q, %d, %d, %d, %d) = %v, %v; want %v",
				c.only, c.trials, c.density, c.jobs, c.shards, got, err, c.want)
		}
	}
}
