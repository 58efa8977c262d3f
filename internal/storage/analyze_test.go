package storage_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"sqlbarber/internal/datagen"
	"sqlbarber/internal/storage"
)

func buildDataset(dataset string, seed int64, sf float64) *storage.Database {
	if dataset == "imdb" {
		return datagen.IMDB(seed, sf)
	}
	return datagen.TPCH(seed, sf)
}

// TestAnalyzeGolden pins the SHA-256 of the JSON schema, statistics
// included, of both datasets. The hashes were taken from the hash-map
// ANALYZE before sort-and-scan replaced it, so they also pin that the
// rewrite changed no statistic.
func TestAnalyzeGolden(t *testing.T) {
	cases := []struct {
		dataset string
		seed    int64
		sf      float64
		sha256  string
	}{
		{"tpch", 1, 0.5, "84565c5ae752a055ce0a21ee110a1de7b2b89488dcc16ddfc970c96c4147112a"},
		{"imdb", 1, 0.5, "df20a4a3dc57366ff27357073011c3014c56200b8f48c482ef78b678ff8efaaf"},
		{"tpch", 11, 0.02, "292e77d7bbb029b87f953fcf60febb59c489a82b455ecfca96a79ab92c3d2230"},
		{"imdb", 11, 0.02, "dca359d70147affb2a914ac05f133dad15da846ac0e6b13be9b7760414cc5842"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/seed=%d/sf=%v", c.dataset, c.seed, c.sf), func(t *testing.T) {
			t.Parallel()
			b, err := json.Marshal(buildDataset(c.dataset, c.seed, c.sf).Schema)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != c.sha256 {
				t.Fatalf("schema+stats sha256 = %s, want %s", got, c.sha256)
			}
		})
	}
}

// TestAnalyzeMatchesReference re-analyzes every column of both datasets
// with the hash-map reference and requires identical statistics.
func TestAnalyzeMatchesReference(t *testing.T) {
	sfs := []float64{0.02, 0.5}
	if testing.Short() {
		sfs = sfs[:1]
	}
	for _, dataset := range []string{"tpch", "imdb"} {
		for _, sf := range sfs {
			for _, seed := range []int64{1, 11, 12, 14, 15, 16} {
				t.Run(fmt.Sprintf("%s/sf=%v/seed=%d", dataset, sf, seed), func(t *testing.T) {
					t.Parallel()
					db := buildDataset(dataset, seed, sf)
					for _, meta := range db.Schema.Tables {
						rows := db.Table(meta.Name).Rows
						for i, col := range meta.Columns {
							want := storage.ReferenceAnalyzeColumn(rows, i, col.Type)
							if !reflect.DeepEqual(col.Stats, want) || !identical(col.Stats, want) {
								t.Fatalf("%s.%s: stats differ from the reference\n got %#v\nwant %#v", meta.Name, col.Name, col.Stats, want)
							}
						}
					}
				})
			}
		}
	}
}

// identical is equality down to the bit: unlike reflect.DeepEqual it tells
// +0 from -0 and holds for a NaN compared with itself.
func identical(a, b any) bool { return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b) }

// BenchmarkAnalyze times ANALYZE of a freshly generated dataset.
func BenchmarkAnalyze(b *testing.B) {
	for _, dataset := range []string{"tpch", "imdb"} {
		b.Run(dataset+"/sf=0.5", func(b *testing.B) {
			db := buildDataset(dataset, 1, 0.5)
			for b.Loop() {
				db.Analyze()
			}
		})
	}
}
