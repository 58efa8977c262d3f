package storage

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/sqltypes"
)

var negZero = math.Copysign(0, -1)

// Value palettes the fuzz decoder draws from. The small ranges make heavy
// ties; ints and floats overlap so mixed columns hold Compare-equal values
// of different kinds.
var (
	fuzzSmallInts = []int64{-3, -1, 0, 1, 2, 7}
	fuzzWideInts  = []int64{math.MinInt64, -1 << 53, 1 << 53, 1<<53 + 1, math.MaxInt64, 1000003}
	fuzzFloats    = []float64{0, negZero, math.NaN(), math.Inf(1), math.Inf(-1), 1, -1, 0.5, 1 << 53, -3, 7, math.Float64frombits(0x7ff8000000000001)}
	fuzzStrings   = []string{"", "a", "b", "ab", "z", "\u00e9"}
)

// Value classes of the fuzz decoder.
const (
	classNull = iota
	classSmallInt
	classWideInt
	classFloat
	classString
	classBool
	numClasses
)

// fuzzClassSets restrict a column to one kind (plus NULLs), so mutated
// inputs keep reaching the typed paths, not only the mixed-kind one.
var fuzzClassSets = [][]int{
	nil, // any class
	{classNull, classSmallInt, classSmallInt, classWideInt},
	{classNull, classFloat},
	{classNull, classString},
	{classNull, classBool},
}

// decodeColumn turns fuzz bytes into a column: data[0] picks the declared
// type, data[1] the class set, and each later byte one row (high bits the
// class, low bits the palette index).
func decodeColumn(data []byte) ([]Row, catalog.ColumnType) {
	if len(data) < 2 {
		return nil, catalog.TypeInt
	}
	typ := catalog.ColumnType(int(data[0]) % 3)
	set := fuzzClassSets[int(data[1])%len(fuzzClassSets)]
	rows := make([]Row, 0, len(data)-2)
	for _, b := range data[2:] {
		class := int(b>>4) % numClasses
		if set != nil {
			class = set[int(b>>4)%len(set)]
		}
		i := int(b & 15)
		var v sqltypes.Value
		switch class {
		case classSmallInt:
			v = sqltypes.NewInt(fuzzSmallInts[i%len(fuzzSmallInts)])
		case classWideInt:
			v = sqltypes.NewInt(fuzzWideInts[i%len(fuzzWideInts)])
		case classFloat:
			v = sqltypes.NewFloat(fuzzFloats[i%len(fuzzFloats)])
		case classString:
			v = sqltypes.NewString(fuzzStrings[i%len(fuzzStrings)])
		case classBool:
			v = sqltypes.NewBool(i%2 == 1)
		}
		rows = append(rows, Row{v})
	}
	return rows, typ
}

// row encodes one value for a seed input: class in the high nibble, palette
// index in the low one.
func row(class, i int) byte { return byte(class<<4 | i) }

func rowsOf(n int, class int, idx func(i int) int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = row(class, idx(i))
	}
	return out
}

// analyzeSeeds are columns the fuzzer starts from: the lengths around the
// histogram threshold, all-NULL columns, ±0/NaN/±Inf floats, mixed
// int/float kinds, booleans, and MCV count ties at the fifth slot.
func analyzeSeeds() [][]byte {
	seed := func(typ, set int, body []byte) []byte { return append([]byte{byte(typ), byte(set)}, body...) }
	var seeds [][]byte
	for _, n := range []int{0, 1, 31, 32, 33} {
		seeds = append(seeds,
			seed(0, 1, rowsOf(n, classSmallInt, func(i int) int { return i % 4 })),
			seed(1, 2, rowsOf(n, classFloat, func(i int) int { return i })),
			seed(2, 3, rowsOf(n, classString, func(i int) int { return i * 7 })),
		)
	}
	allNull := rowsOf(40, classNull, func(int) int { return 0 })
	seeds = append(seeds, seed(0, 0, allNull), seed(2, 0, allNull[:3]))
	// ±0 merges into one value whose MCV sign is the last zero's.
	seeds = append(seeds, seed(1, 2, []byte{row(classFloat, 0), row(classFloat, 1), row(classFloat, 0), row(classFloat, 1)}))
	// Six values with equal counts: the fifth MCV slot is a tie.
	tie := rowsOf(36, classSmallInt, func(i int) int { return i % 6 })
	seeds = append(seeds, seed(0, 1, tie), seed(1, 0, append(tie, rowsOf(12, classFloat, func(i int) int { return 5 + i%3 })...)))
	// Int 1 and Float 1.0, Int 7 and Float 7.0: distinct but Compare-equal.
	mixed := []byte{row(classSmallInt, 3), row(classFloat, 5), row(classSmallInt, 5), row(classFloat, 10), row(classFloat, 5), row(classSmallInt, 3)}
	seeds = append(seeds, seed(0, 0, bytes.Repeat(mixed, 7)))
	// ±0 in a mixed column: the generic path must keep the last zero too.
	seeds = append(seeds, seed(1, 0, bytes.Repeat([]byte{row(classFloat, 1), row(classSmallInt, 2), row(classFloat, 0), row(classSmallInt, 3), row(classFloat, 5)}, 9)))
	// NaNs (two payloads) among numbers and NULLs, past the histogram threshold.
	seeds = append(seeds, seed(1, 0, bytes.Repeat([]byte{row(classFloat, 2), row(classSmallInt, 0), row(classFloat, 11), row(classNull, 0), row(classFloat, 3)}, 8)))
	seeds = append(seeds, seed(0, 4, rowsOf(50, classBool, func(i int) int { return i % 3 })))
	seeds = append(seeds, seed(0, 1, rowsOf(120, classWideInt, func(i int) int { return i * i })))
	return seeds
}

// FuzzAnalyzeDifferential requires analyzeColumn to return exactly the
// statistics of the hash-map reference on arbitrary columns. Plain go test
// runs the seeds.
func FuzzAnalyzeDifferential(f *testing.F) {
	for _, s := range analyzeSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, typ := decodeColumn(data)
		checkAgainstReference(t, rows, typ)
	})
}

func checkAgainstReference(t *testing.T, rows []Row, typ catalog.ColumnType) {
	t.Helper()
	got := analyzeColumn(rows, 0, typ)
	want := referenceAnalyzeColumn(rows, 0, typ)
	// %#v tells +0 from -0 and NaN payloads apart; reflect.DeepEqual
	// does neither and never holds once a NaN is in the stats.
	if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
		t.Fatalf("type %v, %d rows %v:\n got %s\nwant %s", typ, len(rows), rows, g, w)
	}
}

// TestAnalyzeEquivalenceRules spells out the semantics DESIGN.md §15 lists,
// each checked against the reference and against the expected value.
func TestAnalyzeEquivalenceRules(t *testing.T) {
	col := func(vs ...sqltypes.Value) []Row {
		rows := make([]Row, len(vs))
		for i, v := range vs {
			rows[i] = Row{v}
		}
		return rows
	}
	i, f := sqltypes.NewInt, sqltypes.NewFloat
	nan := f(math.NaN())

	zeros := col(f(0), f(negZero), f(0), f(negZero), f(1))
	st := analyzeColumn(zeros, 0, catalog.TypeFloat)
	checkAgainstReference(t, zeros, catalog.TypeFloat)
	if st.NDistinct != 2 || math.Signbit(st.Min.Float()) || !math.Signbit(st.MostCommon[0].Value.Float()) {
		t.Fatalf("±0: ndistinct %d, min %#v, mcv %#v; want 2, +0 (first zero), -0 (last zero)", st.NDistinct, st.Min, st.MostCommon[0].Value)
	}

	nans := col(nan, nan, f(2))
	checkAgainstReference(t, nans, catalog.TypeFloat)
	if st := analyzeColumn(nans, 0, catalog.TypeFloat); st.NDistinct != 3 {
		t.Fatalf("each NaN is its own value: ndistinct %d, want 3", st.NDistinct)
	}

	mixed := col(f(1), i(1), i(1), f(1))
	checkAgainstReference(t, mixed, catalog.TypeInt)
	st = analyzeColumn(mixed, 0, catalog.TypeInt)
	if st.NDistinct != 2 || st.Min.Kind() != sqltypes.KindFloat || st.Max.Kind() != sqltypes.KindFloat {
		t.Fatalf("Int 1 / Float 1.0: ndistinct %d, min %#v, max %#v; want 2 and the first (Float) extreme", st.NDistinct, st.Min, st.Max)
	}
	if mc := st.MostCommon; len(mc) != 2 || mc[0].Value.Kind() != sqltypes.KindInt {
		t.Fatalf("Int 1 / Float 1.0 tie: MCVs %#v; want Int first", mc)
	}

	// 99 NULLs and one value: the value is 1% of all rows, so it is an MCV.
	sparse := append(col(i(5)), make([]Row, 99)...)
	for r := 1; r < len(sparse); r++ {
		sparse[r] = Row{sqltypes.Null}
	}
	checkAgainstReference(t, sparse, catalog.TypeInt)
	if st := analyzeColumn(sparse, 0, catalog.TypeInt); len(st.MostCommon) != 1 || st.MostCommon[0].Freq != 0.01 {
		t.Fatalf("1%% floor over all rows: MCVs %#v", st.MostCommon)
	}
}

// TestValueOrderRefinesCompare checks that valueOrder is a total order that
// agrees with Value.Compare wherever Compare orders two values.
func TestValueOrderRefinesCompare(t *testing.T) {
	var vals []sqltypes.Value
	for _, v := range fuzzSmallInts {
		vals = append(vals, sqltypes.NewInt(v))
	}
	for _, v := range fuzzWideInts {
		vals = append(vals, sqltypes.NewInt(v))
	}
	for _, v := range fuzzFloats {
		vals = append(vals, sqltypes.NewFloat(v))
	}
	for _, v := range fuzzStrings {
		vals = append(vals, sqltypes.NewString(v))
	}
	vals = append(vals, sqltypes.NewBool(false), sqltypes.NewBool(true), sqltypes.NewFloat(0x1p63), sqltypes.NewFloat(-0x1p63), sqltypes.NewFloat(-2.5))
	same := func(a, b sqltypes.Value) bool {
		return a == b || fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
	}
	for _, a := range vals {
		for _, b := range vals {
			ab := valueOrder(a, b)
			if a.Compare(b) < 0 && ab >= 0 {
				t.Errorf("Compare(%#v, %#v) < 0 but valueOrder = %d", a, b, ab)
			}
			if ab != -valueOrder(b, a) {
				t.Errorf("valueOrder(%#v, %#v) is not antisymmetric", a, b)
			}
			if (ab == 0) != same(a, b) {
				t.Errorf("valueOrder(%#v, %#v) = %d, but the values are same=%v", a, b, ab, same(a, b))
			}
			for _, c := range vals {
				if ab <= 0 && valueOrder(b, c) <= 0 && valueOrder(a, c) > 0 {
					t.Errorf("valueOrder not transitive over %#v, %#v, %#v", a, b, c)
				}
			}
		}
	}
}
