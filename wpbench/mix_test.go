package main

import (
	"math"
	"reflect"
	"testing"
)

func TestMixDeterministic(t *testing.T) {
	for _, w := range benchWorkloads {
		a := w.mix.sequence(7, 500)
		b := w.mix.sequence(7, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two sequences for seed 7 differ", w.name)
		}
		if !reflect.DeepEqual(a[:123], w.mix.sequence(7, 123)) {
			t.Errorf("%s: a shorter sequence is not a prefix of a longer one", w.name)
		}
		if reflect.DeepEqual(a, w.mix.sequence(8, 500)) {
			t.Errorf("%s: seeds 7 and 8 give the same sequence", w.name)
		}
		for _, sp := range a {
			if err := sp.Validate(); err != nil {
				t.Fatalf("%s: generated an invalid spec %+v: %v", w.name, sp, err)
			}
		}
	}
}

func TestMixRepeatShare(t *testing.T) {
	const seed, n = 3, 1000
	for _, w := range benchWorkloads {
		m := w.mix
		seq := m.sequence(seed, n)
		// Every block holds exactly mixRepeats hot picks; hot picks are the
		// specs carrying the run's hot input seed.
		for b := 0; b+mixBlock <= n; b += mixBlock {
			hot := 0
			for _, sp := range seq[b : b+mixBlock] {
				if sp.Seed == hotSeed(seed) {
					hot++
				}
			}
			if hot != mixRepeats {
				t.Fatalf("%s: block at %d holds %d hot picks, want %d", w.name, b, hot, mixRepeats)
			}
		}
		// Only the first submission of each hot spec is not deduplicable,
		// so the stated dedup share sits just below the repeat share.
		got := dedupShare(seq)
		lo := repeatShare() - float64(len(m.hot))/n
		if got > repeatShare() || got < lo {
			t.Errorf("%s: dedup share %v outside [%v, %v]", w.name, got, lo, repeatShare())
		}
		fresh := map[string]bool{}
		for _, sp := range seq {
			if sp.Seed != hotSeed(seed) {
				fp := sp.Fingerprint()
				if fresh[fp] {
					t.Fatalf("%s: a fresh spec repeats: %+v", w.name, sp)
				}
				fresh[fp] = true
			}
		}
		if want := (1 - repeatShare()) * n; math.Abs(float64(len(fresh))-want) > 1 {
			t.Errorf("%s: %d fresh specs, want %v", w.name, len(fresh), want)
		}
	}
}
