package storage

import (
	"sort"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/sqltypes"
)

// referenceAnalyzeColumn is the hash-map ANALYZE that analyzeColumn
// replaced, kept as the differential oracle. It is the spec: the production
// code must return identical statistics for every column.
//
// It differs from the replaced code in one comparison. The old MCV sort
// broke count ties with Value.Compare over map iteration order, so distinct
// values that Compare calls equal (Int 1 and Float 1.0, or a NaN and any
// number) came out in a random order from run to run. The oracle breaks
// those ties with valueOrder, which refines Compare, so wherever the old
// code was deterministic the two agree.
func referenceAnalyzeColumn(rows []Row, idx int, typ catalog.ColumnType) catalog.ColumnStats {
	var st catalog.ColumnStats
	if len(rows) == 0 {
		return st
	}
	counts := map[sqltypes.Value]int{}
	nulls := 0
	var numeric []float64
	for _, r := range rows {
		v := r[idx]
		if v.IsNull() {
			nulls++
			continue
		}
		counts[v]++
		if st.NDistinct == 0 || v.Compare(st.Min) < 0 {
			st.Min = v
		}
		if st.NDistinct == 0 || v.Compare(st.Max) > 0 {
			st.Max = v
		}
		st.NDistinct = len(counts)
		if typ != catalog.TypeString {
			numeric = append(numeric, v.Float())
		}
	}
	st.NullFrac = float64(nulls) / float64(len(rows))
	st.MostCommon = referenceTopValues(counts, len(rows))
	if len(numeric) >= histogramBuckets {
		sort.Float64s(numeric)
		st.Histogram = make([]float64, histogramBuckets+1)
		for b := 0; b <= histogramBuckets; b++ {
			pos := b * (len(numeric) - 1) / histogramBuckets
			st.Histogram[b] = numeric[pos]
		}
	}
	return st
}

func referenceTopValues(counts map[sqltypes.Value]int, total int) []catalog.ValueFreq {
	type vc struct {
		v sqltypes.Value
		c int
	}
	all := make([]vc, 0, len(counts))
	for v, c := range counts {
		all = append(all, vc{v, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return valueOrder(all[i].v, all[j].v) < 0
	})
	n := maxMCV
	if n > len(all) {
		n = len(all)
	}
	out := make([]catalog.ValueFreq, 0, n)
	for _, e := range all[:n] {
		if float64(e.c)/float64(total) < 0.01 {
			break
		}
		out = append(out, catalog.ValueFreq{Value: e.v, Freq: float64(e.c) / float64(total)})
	}
	return out
}
