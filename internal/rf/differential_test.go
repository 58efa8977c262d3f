package rf

import (
	"math"
	"math/rand"
	"testing"

	"sqlbarber/internal/prand"
)

// fuzzDataset draws one random (X, y) training corpus: mixed continuous,
// integer-ish, and duplicate-heavy feature columns so stable-tie handling
// and group-boundary thresholds are exercised, plus occasional constant and
// near-constant targets.
func fuzzDataset(rng *rand.Rand, n, dims int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, dims)
		for f := range row {
			switch f % 3 {
			case 0:
				row[f] = rng.Float64()
			case 1:
				row[f] = float64(rng.Intn(5)) // heavy ties
			default:
				row[f] = math.Floor(rng.Float64()*100) / 10
			}
		}
		X[i] = row
		switch rng.Intn(4) {
		case 0:
			y[i] = 3*row[0] - row[dims-1]
		case 1:
			y[i] = row[0] * row[0]
		case 2:
			y[i] = 0.1 // constant plateau
		default:
			y[i] = rng.NormFloat64()
		}
	}
	return X, y
}

// signedZeroDataset draws a corpus built to stress the rank presort: every
// feature takes values in {-0, +0, ±0.5}, so ±0 must share a rank and order
// by draw, and about a third of the rows duplicate an earlier row outright.
func signedZeroDataset(rng *rand.Rand, n, dims int) ([][]float64, []float64) {
	vals := []float64{math.Copysign(0, -1), 0, 0.5, -0.5}
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		if i > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(i)
			X[i], y[i] = append([]float64(nil), X[j]...), y[j]
			continue
		}
		row := make([]float64, dims)
		for f := range row {
			row[f] = vals[rng.Intn(len(vals))]
		}
		X[i] = row
		// Tenths are inexact in binary, so summing tied rows in another
		// order changes a split score's rounding: a mis-ranked ±0 shows.
		y[i] = row[0] + 0.1*float64(rng.Intn(7))
	}
	return X, y
}

// TestDifferentialFlatVsReference is the oracle gate of the flat rewrite:
// across fuzzed corpora of assorted shapes, every tree of the flat forest
// must predict exactly (float64 ==) what the naive pointer reference
// predicts, on training rows and on fresh probe points alike.
func TestDifferentialFlatVsReference(t *testing.T) {
	shapes := []struct{ n, dims, trees int }{
		{4, 1, 4}, {7, 2, 8}, {25, 3, 8}, {60, 2, 8}, {120, 5, 16}, {300, 4, 8},
	}
	corpora := []struct {
		name string
		gen  func(*rand.Rand, int, int) ([][]float64, []float64)
	}{{"mixed", fuzzDataset}, {"signed-zero", signedZeroDataset}}
	for _, corpus := range corpora {
		for round := 0; round < 12; round++ {
			for _, sh := range shapes {
				seed := int64(round*100 + sh.n)
				rng := prand.New(seed, 0x666c6174) // "flat"
				X, y := corpus.gen(rng, sh.n, sh.dims)
				opts := Options{NumTrees: sh.trees, MaxDepth: 2 + round%9, MinLeafSize: 1 + round%3}

				flat := Train(rand.New(rand.NewSource(seed)), X, y, opts)
				ref := ReferenceTrain(rand.New(rand.NewSource(seed)), X, y, opts)
				if flat.NumTrees() != ref.NumTrees() {
					t.Fatalf("%s n=%d dims=%d round=%d: tree counts %d vs %d",
						corpus.name, sh.n, sh.dims, round, flat.NumTrees(), ref.NumTrees())
				}
				probes := append([][]float64(nil), X...)
				for p := 0; p < 40; p++ {
					probes = append(probes, fuzzPoint(rng, sh.dims))
				}
				for _, x := range probes {
					for tr := 0; tr < flat.NumTrees(); tr++ {
						got, want := flat.PredictTree(tr, x), ref.PredictTree(tr, x)
						if got != want {
							t.Fatalf("%s n=%d dims=%d round=%d tree=%d x=%v: flat %v != reference %v",
								corpus.name, sh.n, sh.dims, round, tr, x, got, want)
						}
					}
					gm, gs := flat.Predict(x)
					wm, ws := ref.Predict(x)
					if gm != wm || gs != ws {
						t.Fatalf("%s: ensemble diverged at %v: flat (%v,%v) != reference (%v,%v)",
							corpus.name, x, gm, gs, wm, ws)
					}
				}
			}
		}
	}
}

func fuzzPoint(rng *rand.Rand, dims int) []float64 {
	x := make([]float64, dims)
	for f := range x {
		x[f] = rng.Float64()*12 - 1
	}
	return x
}

// FuzzForestDifferential lets `go test -fuzz` hunt for corpora where the
// flat engine and the pointer oracle disagree; the seed corpus replays in
// every normal test run.
func FuzzForestDifferential(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(2), uint8(6))
	f.Add(int64(42), uint8(3), uint8(1), uint8(1))
	f.Add(int64(7), uint8(90), uint8(4), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, n, dims, depth uint8) {
		rows := int(n)%200 + 2
		cols := int(dims)%6 + 1
		rng := prand.New(seed, int64(rows), int64(cols))
		X, y := fuzzDataset(rng, rows, cols)
		opts := Options{NumTrees: 8, MaxDepth: int(depth)%12 + 1}
		flat := Train(rand.New(rand.NewSource(seed)), X, y, opts)
		ref := ReferenceTrain(rand.New(rand.NewSource(seed)), X, y, opts)
		for p := 0; p < 16; p++ {
			x := fuzzPoint(rng, cols)
			for tr := 0; tr < flat.NumTrees(); tr++ {
				if got, want := flat.PredictTree(tr, x), ref.PredictTree(tr, x); got != want {
					t.Fatalf("tree %d at %v: flat %v != reference %v", tr, x, got, want)
				}
			}
		}
	})
}
