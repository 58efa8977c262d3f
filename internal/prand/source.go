package prand

import "math/rand"

// Source is math/rand's default source (an additive lagged Fibonacci
// generator, x[n] = x[n-607] + x[n-273] mod 2^64) reproduced bit for bit,
// but seeded in O(1). math/rand's Seed fills all 607 register words through
// one serial chain of 1841 Lehmer steps (x[k+1] = 48271·x[k] mod 2^31−1)
// before the first draw; a forest refit seeds a fresh stream per tree and
// draws only a few dozen values from it, so that chain dominated the cost.
//
// Source instead computes each register word on its first touch. Word i is
// x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ cooked[i] with
// x[k] = 48271^k·x[0] mod 2^31−1, i.e. three independent multiplications
// against a power table. A draw only ever reads the two words at its feed
// and tap positions, and in the first lap those are touched in a fixed
// order: draw n < 334 first touches word 333−n (feed), and draw n < 273 also
// word 606−n (tap); every later read hits a word some earlier draw already
// produced. So Seed stores the reduced seed alone and the first 334 draws
// fill the register as they go — a stale word from a previous stream is
// never read, even after a re-Seed mid-stream.
//
// The struct holds no pointers, so its ~4.9 KB register stays out of the
// garbage collector's scan work.
type Source struct {
	tap, feed int
	// pending counts the draws still to come that first-touch a register
	// word: the first rngLen-rngTap draws after Seed.
	pending int
	x0      uint64 // reduced seed, x[0] of the Lehmer chain
	vec     [rngLen]int64
}

const (
	rngLen    = 607
	rngTap    = 273
	int32max  = 1<<31 - 1
	lehmerMul = 48271
	// defaultSeed replaces a seed that reduces to 0, as in math/rand.
	defaultSeed = 89482311
)

var (
	// lehmerPow[k] = 48271^k mod 2^31−1: the multiplier taking x[0] to x[k].
	// Word 606 needs k up to 23+3·606.
	lehmerPow [24 + 3*(rngLen-1)]uint64
	// cooked is math/rand's rngCooked table, derived in init rather than
	// copied (see deriveCooked).
	cooked [rngLen]int64
)

func init() {
	lehmerPow[0] = 1
	for k := 1; k < len(lehmerPow); k++ {
		lehmerPow[k] = lehmerPow[k-1] * lehmerMul % int32max
	}
	cooked = deriveCooked()
}

// deriveCooked recovers math/rand's rngCooked from its own output. The first
// 607 draws of a fresh source write every register slot exactly once (draw
// n's feed slot), so afterwards the register is known in full: each slot
// holds the draw that wrote it. Undoing the draws in reverse
// (vec[feed] -= vec[tap]) restores the register as Seed(1) left it, and
// xoring off seed 1's Lehmer words leaves the cooked table.
func deriveCooked() [rngLen]int64 {
	ref := rand.NewSource(1).(rand.Source64)
	var reg [rngLen]int64
	tap, feed := 0, rngLen-rngTap
	for n := 0; n < rngLen; n++ {
		tap, feed = (tap+rngLen-1)%rngLen, (feed+rngLen-1)%rngLen
		reg[feed] = int64(ref.Uint64())
	}
	for n := rngLen - 1; n >= 0; n-- {
		reg[feed] -= reg[tap]
		tap, feed = (tap+1)%rngLen, (feed+1)%rngLen
	}
	for i := range reg {
		reg[i] ^= lehmerWord(1, i)
	}
	return reg
}

// lehmerWord is register word i of seed x0 before the cooked xor.
func lehmerWord(x0 uint64, i int) int64 {
	k := 21 + 3*i
	return int64(lehmerPow[k]*x0%int32max)<<40 ^
		int64(lehmerPow[k+1]*x0%int32max)<<20 ^
		int64(lehmerPow[k+2]*x0%int32max)
}

// NewSource returns a Source seeded with seed; it yields exactly the stream
// of math/rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the source to the stream of math/rand.NewSource(seed). The
// seed is reduced as math/rand reduces it: modulo 2^31−1, negatives wrapped,
// and 0 replaced by 89482311.
func (s *Source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = defaultSeed
	}
	s.x0 = uint64(seed)
	s.tap, s.feed = 0, rngLen-rngTap
	s.pending = rngLen - rngTap
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.pending > 0 {
		s.touch()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// touch computes the register words the current draw reads for the first
// time. With n = rngLen-rngTap-pending the draw's index since Seed, the feed
// word (333−n) is always fresh, and the tap word (606−n) is fresh while
// n < rngTap, i.e. while pending > rngLen-2·rngTap.
func (s *Source) touch() {
	s.vec[s.feed] = lehmerWord(s.x0, s.feed) ^ cooked[s.feed]
	if s.pending > rngLen-2*rngTap {
		s.vec[s.tap] = lehmerWord(s.x0, s.tap) ^ cooked[s.tap]
	}
	s.pending--
}
