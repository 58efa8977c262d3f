package prand

import (
	"math"
	"math/rand"
	"testing"
)

// paritySeeds are the seed-reduction edge cases: 0 and the values that
// reduce to 0 (replaced by 89482311), ±1, the modulus 2^31−1 and its
// neighbours, and the extremes of int64.
var paritySeeds = []int64{
	0, 1, -1, int32max, -int32max, int32max - 1, 1 << 31, -(1 << 31),
	1 << 62, -(1 << 62), math.MinInt64, math.MaxInt64, defaultSeed, -defaultSeed,
}

// checkParity draws the same mix of methods from both generators and fails
// on the first difference.
func checkParity(t *testing.T, seed int64, draws int) {
	t.Helper()
	got, want := rand.New(NewSource(seed)), rand.New(rand.NewSource(seed))
	for d := 0; d < draws; d++ {
		var g, w float64
		switch d % 5 {
		case 0:
			g, w = float64(got.Uint64()), float64(want.Uint64())
		case 1:
			g, w = float64(got.Intn(1000+d)), float64(want.Intn(1000+d))
		case 2:
			g, w = got.Float64(), want.Float64()
		case 3:
			g, w = got.NormFloat64(), want.NormFloat64()
		default:
			gp, wp := got.Perm(7), want.Perm(7)
			for i := range gp {
				if gp[i] != wp[i] {
					t.Fatalf("seed %d draw %d: Perm %v, math/rand %v", seed, d, gp, wp)
				}
			}
		}
		if g != w {
			t.Fatalf("seed %d draw %d: %v, math/rand %v", seed, d, g, w)
		}
	}
}

// TestSourceMatchesMathRand pins Source to math/rand's default source on the
// seed-reduction edge cases and several hundred random seeds, well past the
// first register lap (607 draws) where lazily filled words are read.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range paritySeeds {
		checkParity(t, seed, 3000)
	}
	seeds := rand.New(rand.NewSource(20250611))
	for i := 0; i < 400; i++ {
		checkParity(t, int64(seeds.Uint64()), 1500)
	}
}

// TestSourceReseedMidStream re-seeds after k draws, at every boundary of the
// lazy fill (the last tap-side first touch at 272, the last feed-side one at
// 333, the end of the first lap at 606), and checks the new stream is the
// fresh one: no word of the previous stream may leak into it.
func TestSourceReseedMidStream(t *testing.T) {
	for _, k := range []int{0, 1, 272, 273, 333, 334, 606, 607, 1000} {
		src := NewSource(12345)
		for d := 0; d < k; d++ {
			src.Uint64()
		}
		src.Seed(-987654321)
		want := rand.NewSource(-987654321).(rand.Source64)
		for d := 0; d < 2000; d++ {
			if g, w := src.Uint64(), want.Uint64(); g != w {
				t.Fatalf("re-seed after %d draws: draw %d = %d, math/rand %d", k, d, g, w)
			}
		}
	}
}

// FuzzSourceMatchesMathRand hunts for a seed and stream length where Source
// and math/rand's source diverge, re-seeding once partway through.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(700), uint16(300))
	f.Add(int64(math.MinInt64), uint16(1), uint16(0))
	f.Add(int64(int32max), uint16(2000), uint16(606))
	f.Fuzz(func(t *testing.T, seed int64, draws, reseedAt uint16) {
		src, want := NewSource(seed), rand.NewSource(seed).(rand.Source64)
		for d := 0; d < int(draws); d++ {
			if d == int(reseedAt) {
				src.Seed(seed ^ int64(d))
				want.Seed(seed ^ int64(d))
			}
			if g, w := src.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: %d, math/rand %d", seed, d, g, w)
			}
		}
	})
}

// BenchmarkNew and BenchmarkMathRandNewSource time seeding a stream and
// taking one draw: what a forest refit paid per tree.
func BenchmarkNew(b *testing.B) {
	var seed int64
	for b.Loop() {
		seed++
		New(seed).Int63()
	}
}

func BenchmarkMathRandNewSource(b *testing.B) {
	var seed int64
	for b.Loop() {
		seed++
		rand.New(rand.NewSource(Mix(seed))).Int63()
	}
}
