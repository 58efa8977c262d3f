package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"sqlbarber/internal/sqltypes"
)

func TestSnapshotRoundTrip(t *testing.T) {
	db := buildDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Schema round trip.
	if back.Schema.Name != db.Schema.Name || len(back.Schema.Tables) != len(db.Schema.Tables) {
		t.Fatal("schema mismatch")
	}
	orig := db.Schema.Table("data")
	got := back.Schema.Table("data")
	if got.RowCount != orig.RowCount {
		t.Fatalf("rowcount %d vs %d", got.RowCount, orig.RowCount)
	}
	// Statistics must survive (they ride inside the schema JSON).
	oc, gc := orig.Column("id"), got.Column("id")
	if gc.Stats.NDistinct != oc.Stats.NDistinct {
		t.Fatalf("ndistinct %d vs %d", gc.Stats.NDistinct, oc.Stats.NDistinct)
	}
	if gc.Stats.Min.Compare(oc.Stats.Min) != 0 || gc.Stats.Max.Compare(oc.Stats.Max) != 0 {
		t.Fatalf("min/max lost: %v..%v vs %v..%v", gc.Stats.Min, gc.Stats.Max, oc.Stats.Min, oc.Stats.Max)
	}
	og, gg := orig.Column("grp"), got.Column("grp")
	if len(gg.Stats.MostCommon) != len(og.Stats.MostCommon) {
		t.Fatal("MCVs lost")
	}
	if gg.Stats.MostCommon[0].Value.Str() != og.Stats.MostCommon[0].Value.Str() {
		t.Fatal("MCV value mangled")
	}
	// Row payload round trip, including the NULL.
	ot, gt := db.Table("data"), back.Table("data")
	if len(gt.Rows) != len(ot.Rows) {
		t.Fatalf("rows %d vs %d", len(gt.Rows), len(ot.Rows))
	}
	for i := range ot.Rows {
		for j := range ot.Rows[i] {
			a, b := ot.Rows[i][j], gt.Rows[i][j]
			if a.IsNull() != b.IsNull() {
				t.Fatalf("row %d col %d null mismatch", i, j)
			}
			if !a.IsNull() && a.Compare(b) != 0 {
				t.Fatalf("row %d col %d: %v vs %v", i, j, a, b)
			}
			if a.Kind() != b.Kind() {
				t.Fatalf("row %d col %d kind: %v vs %v", i, j, a.Kind(), b.Kind())
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a snapshot at all")); err == nil {
		t.Fatal("garbage must be rejected")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Fatal("empty input must be rejected")
	}
}

func TestLoadTruncated(t *testing.T) {
	db := buildDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Load(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated snapshot must be rejected")
	}
}

// TestLoadCorruptHeader: a length read from the file must not size an
// allocation before the data behind it has arrived. A row count or schema
// length of 1<<62 used to panic with "makeslice: cap out of range"; now the
// short stream surfaces as the wrapped read error.
func TestLoadCorruptHeader(t *testing.T) {
	schemaJSON, err := json.Marshal(buildDB(t).Schema)
	if err != nil {
		t.Fatal(err)
	}
	uvarint := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	header := slices.Concat([]byte(snapshotMagic), uvarint(uint64(len(schemaJSON))), schemaJSON)
	cases := []struct {
		name, wantErr string
		data          []byte
	}{
		{"schema length", "storage: schema body: unexpected EOF",
			slices.Concat([]byte(snapshotMagic), uvarint(1<<62), []byte("{}"))},
		{"row count", "storage: data row 0 col 0: EOF",
			slices.Concat(header, uvarint(1<<62))},
		{"string length", "storage: data row 0 col 1: unexpected EOF",
			slices.Concat(header, uvarint(1<<62), []byte{tagInt, 2, tagString}, uvarint(1<<62), []byte("ab"))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(c.data))
			if err == nil || err.Error() != c.wantErr {
				t.Fatalf("Load = %v, want %q", err, c.wantErr)
			}
		})
	}
}

func TestValueJSONRoundTrip(t *testing.T) {
	vals := []sqltypes.Value{
		sqltypes.Null,
		sqltypes.NewInt(-42),
		sqltypes.NewFloat(3.25),
		sqltypes.NewString("o'brien"),
		sqltypes.NewBool(true),
		sqltypes.NewBool(false),
	}
	for _, v := range vals {
		data, err := v.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back sqltypes.Value
		if err := back.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		if back.Kind() != v.Kind() {
			t.Fatalf("kind %v vs %v", back.Kind(), v.Kind())
		}
		if !v.IsNull() && back.Compare(v) != 0 {
			t.Fatalf("value %v vs %v", back, v)
		}
	}
	var bad sqltypes.Value
	if err := bad.UnmarshalJSON([]byte(`{"k":99}`)); err == nil {
		t.Fatal("unknown kind must error")
	}
}
