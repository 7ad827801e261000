package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct {
		q, want float64
	}{
		{0, 1},
		{0.25, 1.75},
		{0.5, 2.5},
		{0.75, 3.25},
		{0.9, 3.7},
		{1, 4},
	}
	for _, c := range cases {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 || xs[1] != 1 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := median([]float64{7, 1, 5}); got != 5 {
		t.Errorf("median of an odd sample = %v, want 5", got)
	}
	if got := median([]float64{3}); got != 3 {
		t.Errorf("median of one value = %v, want 3", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of an empty sample = %v, want NaN", got)
	}
}
