// Package prand derives independent, deterministic random streams from a
// base seed using SplitMix64. Every parallel task in the pipeline (one
// template generation, one profiling run, one BO search) owns a stream
// derived from (seed, stage tag, task coordinates), so the bytes a task
// draws never depend on which goroutine ran it or in what order — the
// foundation of the "-parallel N is byte-identical to sequential" guarantee.
package prand

import "math/rand"

// Stage tags keep streams of different pipeline stages disjoint even when
// their task coordinates collide.
const (
	StageGenerate int64 = 0x67656e // "gen"
	StageProfile  int64 = 0x70726f // "pro"
	StageSearch   int64 = 0x736561 // "sea"
	StageOracle   int64 = 0x6f7263 // "orc"
)

// splitmix64 is the SplitMix64 finalizer (Steele, Lea & Flood 2014) — a
// bijective avalanche mix whose outputs pass BigCrush, making it the
// standard choice for deriving child seeds from sequential or structured
// inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mix folds the given coordinates into one well-mixed 63-bit seed. The fold
// is order-sensitive: Mix(a, b) != Mix(b, a), so (stage, round, task) tuples
// derive distinct streams from distinct coordinates.
func Mix(vals ...int64) int64 {
	h := uint64(0x853c49e6748fea9b)
	for _, v := range vals {
		h = splitmix64(h ^ uint64(v))
	}
	return int64(h &^ (1 << 63)) // non-negative for rand.NewSource friendliness
}

// New returns a *rand.Rand seeded from the mixed coordinates. Its stream is
// exactly that of math/rand.NewSource(Mix(vals...)), but seeding costs O(1)
// (see Source). Each caller owns the returned generator; it is not safe for
// concurrent use.
func New(vals ...int64) *rand.Rand {
	return rand.New(NewSource(Mix(vals...)))
}

// HashString folds a string into an int64 coordinate (FNV-1a), letting
// streams be derived from template SQL text before a numeric ID exists.
func HashString(s string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h &^ (1 << 63))
}
