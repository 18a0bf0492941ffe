package main

import "testing"

func TestValidFig(t *testing.T) {
	for _, tc := range []struct {
		name string
		want bool
	}{
		{"1", true}, {"2", true}, {"3", true}, {"scaling", true},
		{"faultclass", true}, {"ablation", true}, {"all", true},
		{"bogus", false}, {"", false}, {"4", false}, {"All", false},
	} {
		if got := validFig(tc.name); got != tc.want {
			t.Errorf("validFig(%q) = %v, want %v", tc.name, got, tc.want)
		}
	}
}
