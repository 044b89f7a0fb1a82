package main

import (
	"fmt"
	"math"

	"github.com/hd-index/hdindex/internal/vecmath"
)

// hit is one returned neighbour, whichever entry point returned it.
type hit struct {
	ID   uint64  `json:"id"`
	Dist float64 `json:"dist"`
}

// validate checks one query's answer against the benchmark's own copy
// of the data: exactly k results, every id known and not deleted, every
// distance equal to the exact distance recomputed here, and distances
// ascending without repeated ids.
func validate(q []float32, hits []hit, k int, vecOf func(uint64) []float32, deleted func(uint64) bool) error {
	if len(hits) != k {
		return fmt.Errorf("got %d results, want %d", len(hits), k)
	}
	seen := make(map[uint64]bool, len(hits))
	for i, h := range hits {
		v := vecOf(h.ID)
		if v == nil {
			return fmt.Errorf("result %d: unknown id %d", i, h.ID)
		}
		if deleted(h.ID) {
			return fmt.Errorf("result %d: id %d was deleted before the query started", i, h.ID)
		}
		if d := math.Sqrt(vecmath.DistSq(q, v)); d != h.Dist {
			return fmt.Errorf("result %d: id %d has distance %v, recomputed %v", i, h.ID, h.Dist, d)
		}
		if seen[h.ID] {
			return fmt.Errorf("result %d: id %d repeated", i, h.ID)
		}
		seen[h.ID] = true
		if i > 0 && h.Dist < hits[i-1].Dist {
			return fmt.Errorf("result %d: distance %v after %v, not ascending", i, h.Dist, hits[i-1].Dist)
		}
	}
	return nil
}

// recallAt returns |hits ∩ truth| / |truth|.
func recallAt(hits []hit, truth []uint64) float64 {
	want := make(map[uint64]bool, len(truth))
	for _, id := range truth {
		want[id] = true
	}
	n := 0
	for _, h := range hits {
		if want[h.ID] {
			n++
		}
	}
	return float64(n) / float64(len(truth))
}

// sameHits reports whether two answers are bit-for-bit identical.
func sameHits(a, b []hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}
