// Package storage implements the in-memory row store backing the embedded
// SQL engine, including the ANALYZE pass that populates optimizer statistics
// in the catalog.
package storage

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/sqltypes"
)

// Row is one tuple; columns are positional per the table schema.
type Row []sqltypes.Value

// Table couples a catalog schema entry with its rows.
type Table struct {
	Meta *catalog.Table
	Rows []Row
}

// Append adds a row, panicking on arity mismatch (programming error).
func (t *Table) Append(r Row) {
	if len(r) != len(t.Meta.Columns) {
		panic(fmt.Sprintf("storage: row arity %d != %d columns of %s", len(r), len(t.Meta.Columns), t.Meta.Name))
	}
	t.Rows = append(t.Rows, r)
}

// Database is a named collection of tables plus the catalog schema.
type Database struct {
	Schema *catalog.Schema
	tables map[string]*Table
}

// NewDatabase creates an empty database around a schema, allocating a table
// container per schema table.
func NewDatabase(schema *catalog.Schema) *Database {
	db := &Database{Schema: schema, tables: map[string]*Table{}}
	for _, t := range schema.Tables {
		db.tables[lower(t.Name)] = &Table{Meta: t}
	}
	return db
}

// Table returns the named table, or nil. Case-insensitive.
func (db *Database) Table(name string) *Table { return db.tables[lower(name)] }

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// maxMCV is how many most-common values ANALYZE records per column.
const maxMCV = 5

// histogramBuckets is the number of equi-depth histogram buckets.
const histogramBuckets = 32

// Analyze recomputes row counts, sizes, and per-column statistics for every
// table, mirroring PostgreSQL's ANALYZE. It must be called after bulk loads
// so the planner sees fresh statistics.
func (db *Database) Analyze() {
	for _, t := range db.tables {
		analyzeTable(t)
	}
}

func analyzeTable(t *Table) {
	meta := t.Meta
	meta.RowCount = len(t.Rows)
	var width int64
	for i := range meta.Columns {
		col := &meta.Columns[i]
		st := analyzeColumn(t.Rows, i, col.Type)
		col.Stats = st
		switch col.Type {
		case catalog.TypeString:
			width += 24
		default:
			width += 8
		}
	}
	meta.SizeBytes = width * int64(len(t.Rows))
}

// analyzeColumn computes one column's statistics by sort-and-scan: the
// non-null values are gathered into a typed slice ([]int64, []float64 or
// []string when the column holds a single kind), sorted once, and scanned
// once. The scan yields NDistinct, Min, Max, the MCVs and the histogram.
//
// The result is defined by the semantics of a hash-map ANALYZE (kept as the
// differential oracle in reference_test.go; DESIGN.md §15):
//   - values are distinct by Go == on sqltypes.Value: Int 1 and Float 1.0
//     are two values, +0 and -0 are one, and every NaN is its own value;
//   - a ±0 MCV carries the sign of the zero's last occurrence in row order;
//   - Min and Max fold with a strict Value.Compare, so the first of several
//     Compare-equal extremes in row order wins;
//   - MCVs rank by count descending, then valueOrder ascending, and need a
//     frequency of 1% of all rows, NULLs included;
//   - the histogram (non-string columns with ≥ histogramBuckets non-null
//     values) reads positions of the sorted float64 images of the values.
func analyzeColumn(rows []Row, idx int, typ catalog.ColumnType) catalog.ColumnStats {
	var st catalog.ColumnStats
	if len(rows) == 0 {
		return st
	}
	// Gather the non-null values into the typed slice of their kind. A
	// column a typed path cannot take (mixed kinds, booleans, a NaN) goes to
	// analyzeValues at its first such value.
	var (
		kind                = sqltypes.KindNull
		nulls               int
		ints                []int64
		floats              []float64
		strs                []string
		firstZero, lastZero float64
		seenZero            bool
	)
	for i, r := range rows {
		v := r[idx]
		switch k := v.Kind(); {
		case k == sqltypes.KindNull:
			nulls++
			continue
		case kind == sqltypes.KindNull:
			kind = k
		case k != kind:
			return analyzeValues(rows, idx, typ)
		}
		switch kind {
		case sqltypes.KindInt:
			if ints == nil {
				ints = make([]int64, 0, len(rows)-i)
			}
			ints = append(ints, v.Int())
		case sqltypes.KindFloat:
			if floats == nil {
				floats = make([]float64, 0, len(rows)-i)
			}
			f := v.Float()
			if f != f {
				return analyzeValues(rows, idx, typ)
			}
			// Sorting cannot tell +0 from -0, so the zeros' signs are
			// taken in row order: the first zero is the extreme a strict
			// Compare fold keeps, the last is the MCV representative.
			if f == 0 {
				if !seenZero {
					firstZero, seenZero = f, true
				}
				lastZero = f
			}
			floats = append(floats, f)
		case sqltypes.KindString:
			if strs == nil {
				strs = make([]string, 0, len(rows)-i)
			}
			strs = append(strs, v.Str())
		default:
			return analyzeValues(rows, idx, typ)
		}
	}
	st.NullFrac = float64(nulls) / float64(len(rows))
	n := len(rows) - nulls
	hist := typ != catalog.TypeString && n >= histogramBuckets
	var top []mcv
	var value func(i int) sqltypes.Value
	switch kind {
	case sqltypes.KindInt:
		slices.Sort(ints)
		st.Min, st.Max = sqltypes.NewInt(ints[0]), sqltypes.NewInt(ints[n-1])
		st.NDistinct, top = scanRuns(ints)
		if hist {
			st.Histogram = histogram(n, func(i int) float64 { return float64(ints[i]) })
		}
		value = func(i int) sqltypes.Value { return sqltypes.NewInt(ints[i]) }
	case sqltypes.KindFloat:
		// The sorted slice is exactly the float64-image sort the histogram
		// is defined over, ±0 arrangement included.
		slices.Sort(floats)
		withZeroSign := func(f, zero float64) sqltypes.Value {
			if f == 0 {
				f = zero
			}
			return sqltypes.NewFloat(f)
		}
		st.Min, st.Max = withZeroSign(floats[0], firstZero), withZeroSign(floats[n-1], firstZero)
		st.NDistinct, top = scanRuns(floats)
		if hist {
			st.Histogram = histogram(n, func(i int) float64 { return floats[i] })
		}
		value = func(i int) sqltypes.Value { return withZeroSign(floats[i], lastZero) }
	case sqltypes.KindString:
		slices.Sort(strs)
		st.Min, st.Max = sqltypes.NewString(strs[0]), sqltypes.NewString(strs[n-1])
		st.NDistinct, top = scanRuns(strs)
		if hist {
			st.Histogram = make([]float64, histogramBuckets+1) // strings widen to 0
		}
		value = func(i int) sqltypes.Value { return sqltypes.NewString(strs[i]) }
	}
	st.MostCommon = mostCommon(top, value, len(rows))
	return st
}

// analyzeValues is analyzeColumn for any column the typed paths do not
// take. It folds Min and Max in row order with Value.Compare exactly as the
// definition reads, and stable-sorts the values by valueOrder, so each run
// of == values ends at its last occurrence in row order.
func analyzeValues(rows []Row, idx int, typ catalog.ColumnType) catalog.ColumnStats {
	var st catalog.ColumnStats
	vals := make([]sqltypes.Value, 0, len(rows))
	for _, r := range rows {
		v := r[idx]
		if v.IsNull() {
			continue
		}
		if len(vals) == 0 || v.Compare(st.Min) < 0 {
			st.Min = v
		}
		if len(vals) == 0 || v.Compare(st.Max) > 0 {
			st.Max = v
		}
		vals = append(vals, v)
	}
	n := len(vals)
	st.NullFrac = float64(len(rows)-n) / float64(len(rows))
	if typ != catalog.TypeString && n >= histogramBuckets {
		floats := make([]float64, n)
		for i, v := range vals {
			floats[i] = v.Float()
		}
		slices.Sort(floats)
		st.Histogram = histogram(n, func(i int) float64 { return floats[i] })
	}
	slices.SortStableFunc(vals, valueOrder)
	var top []mcv
	st.NDistinct, top = scanRuns(vals)
	st.MostCommon = mostCommon(top, func(i int) sqltypes.Value { return vals[i] }, len(rows))
	return st
}

// histogram returns the equi-depth bucket boundaries over n sorted values,
// read through at.
func histogram(n int, at func(i int) float64) []float64 {
	h := make([]float64, histogramBuckets+1)
	for b := range h {
		h[b] = at(b * (n - 1) / histogramBuckets)
	}
	return h
}

// mcv is one most-common-value candidate: the sorted-slice index of the last
// element of its run, and the run's length.
type mcv struct{ last, count int }

// scanRuns walks the runs of ==-equal values in sorted and returns how many
// there are and the maxMCV longest, longest first. Runs arrive in ascending
// order and a run displaces a kept one only when strictly longer, so equal
// counts stay in ascending value order.
func scanRuns[T comparable](sorted []T) (int, []mcv) {
	top := make([]mcv, 0, maxMCV)
	runs := 0
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		runs++
		if c := j - i; len(top) < maxMCV || c > top[len(top)-1].count {
			k := len(top)
			if k < maxMCV {
				top = append(top, mcv{})
			} else {
				k--
			}
			for ; k > 0 && top[k-1].count < c; k-- {
				top[k] = top[k-1]
			}
			top[k] = mcv{last: j - 1, count: c}
		}
		i = j
	}
	return runs, top
}

// mostCommon turns the longest runs into MCVs, keeping only values that are
// genuinely common: a flat column gains nothing from MCVs. total counts all
// rows, NULLs included.
func mostCommon(top []mcv, value func(i int) sqltypes.Value, total int) []catalog.ValueFreq {
	out := make([]catalog.ValueFreq, 0, len(top))
	for _, e := range top {
		freq := float64(e.count) / float64(total)
		if freq < 0.01 {
			break
		}
		out = append(out, catalog.ValueFreq{Value: value(e.last), Freq: freq})
	}
	return out
}

// valueOrder is the total order ANALYZE ranks values by. It refines
// Value.Compare (a < b under Compare implies a < b here) and breaks the ties
// Compare leaves between distinct values: numbers compare exactly, with an
// Int before an equal Float; NaNs sort before every other number, by bit
// pattern. Kinds rank numbers < strings < booleans, as in Compare.
func valueOrder(a, b sqltypes.Value) int {
	if ra, rb := kindRank(a.Kind()), kindRank(b.Kind()); ra != rb {
		return cmp.Compare(ra, rb)
	}
	switch a.Kind() {
	case sqltypes.KindString:
		return strings.Compare(a.Str(), b.Str())
	case sqltypes.KindBool:
		return cmp.Compare(a.Int(), b.Int())
	}
	fa, fb := a.Float(), b.Float()
	if nanA, nanB := fa != fa, fb != fb; nanA || nanB {
		if nanA && nanB {
			return cmp.Compare(math.Float64bits(fa), math.Float64bits(fb))
		}
		if nanA {
			return -1
		}
		return 1
	}
	switch {
	case a.Kind() == sqltypes.KindInt && b.Kind() == sqltypes.KindInt:
		return cmp.Compare(a.Int(), b.Int())
	case a.Kind() == sqltypes.KindFloat && b.Kind() == sqltypes.KindFloat:
		return cmp.Compare(fa, fb)
	case a.Kind() == sqltypes.KindInt:
		if c := cmpIntFloat(a.Int(), fb); c != 0 {
			return c
		}
		return -1
	default:
		if c := cmpIntFloat(b.Int(), fa); c != 0 {
			return -c
		}
		return 1
	}
}

// kindRank groups kinds the way Value.Compare orders them across kinds.
func kindRank(k sqltypes.Kind) int {
	switch k {
	case sqltypes.KindInt, sqltypes.KindFloat:
		return 0
	case sqltypes.KindString:
		return 1
	}
	return 2
}

// cmpIntFloat compares an int64 with a non-NaN float64 exactly, without the
// rounding of float64(i).
func cmpIntFloat(i int64, f float64) int {
	switch {
	case f >= 0x1p63:
		return -1
	case f < -0x1p63:
		return 1
	}
	t := math.Trunc(f)
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmp.Compare(0, f-t)
}
