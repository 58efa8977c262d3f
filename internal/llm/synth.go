package llm

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/spec"
)

// synthOptions steers one template synthesis.
type synthOptions struct {
	schema *catalog.Schema
	path   catalog.JoinPath
	spec   spec.Spec
	rng    *rand.Rand
	// breakSpec deliberately violates one spec constraint (hallucination).
	breakSpec bool
	// breakSyntax deliberately corrupts the SQL (hallucination).
	breakSyntax bool
}

// synthesize builds template SQL for the join path under the specification.
// With both break flags false the result parses, binds, and satisfies the
// spec (assuming the path length matches the joins constraint).
func synthesize(o synthOptions) string {
	rng := o.rng
	tables := make([]*catalog.Table, len(o.path.Tables))
	aliases := make([]string, len(o.path.Tables))
	aliasOf := map[string]string{}
	for i, name := range o.path.Tables {
		tables[i] = o.schema.Table(name)
		aliases[i] = fmt.Sprintf("t%d", i)
		aliasOf[strings.ToLower(name)] = aliases[i]
	}

	// Effective structural targets.
	nAggs := 0
	if o.spec.NumAggregations != nil {
		nAggs = *o.spec.NumAggregations
	} else if rng.Intn(2) == 0 {
		nAggs = 1 + rng.Intn(2)
	}
	nPreds := 2
	if o.spec.NumPredicates != nil {
		nPreds = *o.spec.NumPredicates
	}
	nested := o.spec.NestedQuery != nil && *o.spec.NestedQuery
	groupBy := o.spec.GroupBy != nil && *o.spec.GroupBy
	complexScalar := o.spec.ComplexScalar != nil && *o.spec.ComplexScalar

	if o.breakSpec {
		// Violate one randomly chosen constrained dimension.
		choices := []func(){}
		if o.spec.NumAggregations != nil {
			choices = append(choices, func() { nAggs = *o.spec.NumAggregations + 1 })
		}
		if o.spec.NumPredicates != nil && *o.spec.NumPredicates > 0 {
			choices = append(choices, func() { nPreds = *o.spec.NumPredicates - 1 })
		}
		if nested {
			choices = append(choices, func() { nested = false })
		}
		if groupBy {
			choices = append(choices, func() { groupBy = false })
		}
		if complexScalar {
			choices = append(choices, func() { complexScalar = false })
		}
		if len(choices) == 0 {
			choices = append(choices, func() { nAggs++ })
		}
		choices[rng.Intn(len(choices))]()
	}

	// Column pools.
	type qcol struct {
		alias string
		col   catalog.Column
	}
	var numeric, grouping, categorical []qcol
	for i, t := range tables {
		if t == nil {
			continue
		}
		for _, c := range t.Columns {
			q := qcol{aliases[i], c}
			switch c.Type {
			case catalog.TypeInt, catalog.TypeFloat:
				numeric = append(numeric, q)
				if c.Stats.NDistinct > 0 && c.Stats.NDistinct <= 64 {
					grouping = append(grouping, q)
				}
			case catalog.TypeString:
				if c.Stats.NDistinct > 0 && c.Stats.NDistinct <= 64 {
					grouping = append(grouping, q)
					// Columns with recorded common values support categorical
					// equality placeholders ({p} over the value vocabulary).
					if len(c.Stats.MostCommon) >= 2 {
						categorical = append(categorical, q)
					}
				}
			}
		}
	}
	if len(numeric) == 0 {
		numeric = append(numeric, qcol{aliases[0], tables[0].Columns[0]})
	}
	pickNumeric := func() qcol { return numeric[rng.Intn(len(numeric))] }

	// SELECT list.
	var items []string
	var groupKeys []string
	if groupBy {
		if len(grouping) == 0 {
			// No low-cardinality column available: group on the least
			// distinct column in scope so the clause still exists.
			best := qcol{aliases[0], tables[0].Columns[0]}
			for i, t := range tables {
				if t == nil {
					continue
				}
				for _, c := range t.Columns {
					if c.Stats.NDistinct > 0 && c.Stats.NDistinct < best.col.Stats.NDistinct {
						best = qcol{aliases[i], c}
					}
				}
			}
			grouping = append(grouping, best)
		}
		nKeys := 1
		if len(grouping) > 1 && rng.Intn(2) == 0 {
			nKeys = 2
		}
		for k := 0; k < nKeys; k++ {
			g := grouping[rng.Intn(len(grouping))]
			key := g.alias + "." + g.col.Name
			if !contains(groupKeys, key) {
				groupKeys = append(groupKeys, key)
				items = append(items, key)
			}
		}
	}
	aggFuncs := []string{"SUM", "AVG", "MIN", "MAX", "COUNT"}
	for a := 0; a < nAggs; a++ {
		fn := aggFuncs[rng.Intn(len(aggFuncs))]
		if fn == "COUNT" && rng.Intn(2) == 0 {
			items = append(items, "COUNT(*)")
			continue
		}
		c := pickNumeric()
		items = append(items, fmt.Sprintf("%s(%s.%s)", fn, c.alias, c.col.Name))
	}
	if complexScalar {
		a, b := pickNumeric(), pickNumeric()
		switch rng.Intn(3) {
		case 0:
			items = append(items, fmt.Sprintf("(%s.%s * 2 + %s.%s / 3) AS expr_1", a.alias, a.col.Name, b.alias, b.col.Name))
		case 1:
			items = append(items, fmt.Sprintf("CASE WHEN %s.%s > %s.%s THEN 1 ELSE 0 END AS flag_1", a.alias, a.col.Name, b.alias, b.col.Name))
		default:
			items = append(items, fmt.Sprintf("((%s.%s + 1) * (%s.%s + 2)) AS expr_2", a.alias, a.col.Name, b.alias, b.col.Name))
		}
	}
	if len(items) == 0 {
		// Plain projection of a few columns.
		n := 1 + rng.Intn(3)
		for k := 0; k < n; k++ {
			c := pickNumeric()
			item := c.alias + "." + c.col.Name
			if !contains(items, item) {
				items = append(items, item)
			}
		}
	}

	// FROM / JOIN clauses along the path.
	var b strings.Builder
	b.WriteString("SELECT ")
	b.WriteString(strings.Join(items, ", "))
	fmt.Fprintf(&b, " FROM %s AS %s", o.path.Tables[0], aliases[0])
	for i, e := range o.path.Edges {
		la := aliasOf[strings.ToLower(e.LeftTable)]
		ra := aliasOf[strings.ToLower(e.RightTable)]
		fmt.Fprintf(&b, " JOIN %s AS %s ON %s.%s = %s.%s",
			e.RightTable, aliases[i+1], la, e.LeftColumn, ra, e.RightColumn)
	}

	// WHERE clause with placeholder predicates.
	var preds []string
	predsForWhere := nPreds
	if nested && predsForWhere > 0 {
		predsForWhere-- // reserve one placeholder for the subquery
	}
	ops := []string{">=", "<=", ">", "<"}
	usedCols := map[string]bool{}
	phID := 1
	for k := 0; k < predsForWhere; k++ {
		// Occasionally emit a categorical equality predicate over a string
		// column's value vocabulary; otherwise a numeric range predicate.
		if len(categorical) > 0 && rng.Intn(5) == 0 {
			c := categorical[rng.Intn(len(categorical))]
			key := c.alias + "." + c.col.Name
			if !usedCols[key] {
				usedCols[key] = true
				preds = append(preds, fmt.Sprintf("%s = {p_%d}", key, phID))
				phID++
				continue
			}
		}
		var c qcol
		for tries := 0; tries < 8; tries++ {
			c = pickNumeric()
			if !usedCols[c.alias+"."+c.col.Name] {
				break
			}
		}
		usedCols[c.alias+"."+c.col.Name] = true
		preds = append(preds, fmt.Sprintf("%s.%s %s {p_%d}", c.alias, c.col.Name, ops[rng.Intn(len(ops))], phID))
		phID++
	}
	if nested {
		// Respect an explicit table budget: when the spec pins the number
		// of accessed tables to the join path's length, the subquery must
		// reuse a path table rather than referencing a new one.
		allowNewTable := o.spec.NumTables == nil || *o.spec.NumTables > len(o.path.Tables)
		sub := synthesizeSubquery(o.schema, tables, aliases, rng, &phID, allowNewTable)
		if sub != "" {
			preds = append(preds, sub)
		} else {
			// No usable FK for an IN-subquery; fall back to a scalar
			// subquery over a table already on the path, which nests
			// without widening the table set.
			c := pickNumeric()
			inner := tables[0]
			innerCols := inner.NumericColumns()
			innerCol := inner.Columns[0].Name
			if len(innerCols) > 0 {
				innerCol = innerCols[rng.Intn(len(innerCols))]
			}
			preds = append(preds, fmt.Sprintf("%s.%s > (SELECT MIN(%s) FROM %s WHERE %s < {p_%d})",
				c.alias, c.col.Name, innerCol, inner.Name, innerCol, phID))
			phID++
		}
	}
	if len(preds) > 0 {
		b.WriteString(" WHERE " + strings.Join(preds, " AND "))
	}
	if len(groupKeys) > 0 {
		b.WriteString(" GROUP BY " + strings.Join(groupKeys, ", "))
	}

	sql := b.String()
	if o.breakSyntax {
		sql = corrupt(sql, rng)
	}
	return sql
}

// synthesizeSubquery builds an `fk IN (SELECT pk FROM ref WHERE col >= {p})`
// predicate from some foreign key of the path tables. When allowNewTable is
// false, only foreign keys referencing a table already on the path qualify.
func synthesizeSubquery(schema *catalog.Schema, tables []*catalog.Table, aliases []string, rng *rand.Rand, phID *int, allowNewTable bool) string {
	onPath := map[string]bool{}
	for _, t := range tables {
		if t != nil {
			onPath[strings.ToLower(t.Name)] = true
		}
	}
	type fkOpt struct {
		alias string
		fk    catalog.ForeignKey
	}
	var opts []fkOpt
	for i, t := range tables {
		if t == nil {
			continue
		}
		for _, fk := range t.ForeignKeys {
			if !allowNewTable && !onPath[strings.ToLower(fk.RefTable)] {
				continue
			}
			opts = append(opts, fkOpt{aliases[i], fk})
		}
	}
	if len(opts) == 0 {
		return ""
	}
	o := opts[rng.Intn(len(opts))]
	ref := schema.Table(o.fk.RefTable)
	if ref == nil {
		return ""
	}
	numCols := ref.NumericColumns()
	inner := ref.PrimaryKey
	if inner == "" {
		inner = o.fk.RefColumn
	}
	cond := ""
	if len(numCols) > 0 {
		col := numCols[rng.Intn(len(numCols))]
		cond = fmt.Sprintf(" WHERE %s >= {p_%d}", col, *phID)
		*phID++
	}
	return fmt.Sprintf("%s.%s IN (SELECT %s FROM %s%s)", o.alias, o.fk.Column, inner, o.fk.RefTable, cond)
}

// corrupt injects one realistic LLM hallucination into otherwise-valid SQL:
// a nonexistent column, a nonexistent table, or a parse-level defect.
func corrupt(sql string, rng *rand.Rand) string {
	switch rng.Intn(5) {
	case 0: // misspell a column: x.y -> x.y_zz
		if i := strings.Index(sql, "."); i > 0 {
			j := i + 1
			for j < len(sql) && (isWordByte(sql[j])) {
				j++
			}
			return sql[:j] + "_zz" + sql[j:]
		}
	case 1: // break the first table name
		if i := strings.Index(sql, " FROM "); i > 0 {
			j := i + 6
			k := j
			for k < len(sql) && isWordByte(sql[k]) {
				k++
			}
			return sql[:k] + "s_tbl" + sql[k:]
		}
	case 2: // duplicate comma in the select list
		if i := strings.Index(sql, ", "); i > 0 {
			return sql[:i] + ",," + sql[i+1:]
		}
		return "SELECT , " + sql[len("SELECT "):]
	case 3: // drop the FROM keyword
		return strings.Replace(sql, " FROM ", " FORM ", 1)
	case 4: // unbalance parentheses
		if i := strings.LastIndex(sql, ")"); i > 0 {
			return sql[:i] + sql[i+1:]
		}
		return sql + ")"
	}
	return sql + " WHERE" // trailing junk
}

func isWordByte(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// pathScore approximates the scan-cost mass of a join path: the sum of page
// and tuple costs of its tables. Both cardinality and plan cost grow with
// this score, so it is the lever RefineTemplate uses to move templates up or
// down the cost axis.
func pathScore(schema *catalog.Schema, path catalog.JoinPath) float64 {
	s := 0.0
	for _, name := range path.Tables {
		if t := schema.Table(name); t != nil {
			s += float64(t.SizeBytes)/8192 + 0.01*float64(t.RowCount)
		}
	}
	return s
}

// scoredPath is a join path with its pathScore, computed once.
type scoredPath struct {
	path  catalog.JoinPath
	score float64
}

// rankedPaths returns all paths with numJoins edges, each scored once,
// stably sorted by ascending score (limit caps enumeration).
func rankedPaths(schema *catalog.Schema, numJoins, limit int) []scoredPath {
	paths := schema.JoinPaths(numJoins, limit)
	ranked := make([]scoredPath, len(paths))
	for i, p := range paths {
		ranked[i] = scoredPath{path: p, score: pathScore(schema, p)}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].score < ranked[j].score })
	return ranked
}
