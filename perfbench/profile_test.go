package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

func TestModuleOf(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // innermost first
		want   string
	}{
		{"math/rand seeding charges prand", []string{
			"math/rand.seedrand", "math/rand.(*rngSource).Seed", "math/rand.NewSource",
			"sqlbarber/internal/prand.New", "sqlbarber/internal/rf.Train", "sqlbarber/internal/bo.(*Optimizer).Suggest",
		}, "prand"},
		{"malloc charges its caller", []string{
			"runtime.mallocgc", "runtime.makeslice", "sqlbarber/internal/exec.RunBoundArena.func1",
			"sqlbarber/internal/engine.(*Session).Cost",
		}, "exec"},
		{"sort charges its caller", []string{
			"sort.pdqsort", "sort.Sort", "sqlbarber/internal/rf.(*builder).grow",
		}, "rf"},
		{"nested package names its module", []string{
			"sqlbarber/internal/analyzer/intervals.Analyze", "sqlbarber/internal/pipeline.intervalsStage.Run",
		}, "analyzer"},
		{"generic function", []string{
			"sqlbarber/internal/stats.quantile[...]", "sqlbarber/internal/search.(*Searcher).Run",
		}, "stats"},
		{"ANALYZE under engine.Open is datagen", []string{
			"sort.Float64s", "sqlbarber/internal/storage.(*Table).Analyze", "sqlbarber/internal/engine.Open",
			"sqlbarber/internal/engine.OpenIMDB",
		}, "datagen"},
		{"GC background worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker",
		}, "runtime.gc"},
		{"GC assist charges the allocating module", []string{
			"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "sqlbarber/internal/plan.Compile",
		}, "plan"},
		{"no internal frame", []string{"syscall.Syscall", "net/http.(*conn).serve"}, "other"},
	}
	for _, c := range cases {
		if got := moduleOf(c.frames); got != c.want {
			t.Errorf("%s: moduleOf = %q, want %q", c.name, got, c.want)
		}
	}
}

// protoBuf is a minimal protobuf encoder for building test profiles.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(num int, v uint64) *protoBuf {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *protoBuf) bytes(num int, b []byte) *protoBuf {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestModuleSharesDecodesProfile(t *testing.T) {
	var prof protoBuf
	for _, s := range []string{"", "sqlbarber/internal/rf.Train", "math/rand.seedrand", "sqlbarber/internal/exec.Run", "runtime.gcBgMarkWorker"} {
		prof.bytes(6, []byte(s))
	}
	for id := uint64(1); id <= 4; id++ {
		prof.bytes(5, new(protoBuf).varint(1, id).varint(2, id).b)
	}
	// Location 1 holds math/rand inlined into rf.Train (innermost line first).
	line := func(fn uint64) []byte { return new(protoBuf).varint(1, fn).b }
	prof.bytes(4, new(protoBuf).varint(1, 1).bytes(4, line(2)).bytes(4, line(1)).b)
	prof.bytes(4, new(protoBuf).varint(1, 2).bytes(4, line(3)).b)
	prof.bytes(4, new(protoBuf).varint(1, 3).bytes(4, line(4)).b)
	// Values are (samples, nanoseconds); attribution weighs by the last.
	prof.bytes(2, new(protoBuf).bytes(1, packed(1)).bytes(2, packed(3, 30)).b)
	prof.bytes(2, new(protoBuf).bytes(1, packed(2)).bytes(2, packed(6, 60)).b)
	// An unpacked location list must decode too.
	prof.bytes(2, new(protoBuf).varint(1, 3).bytes(2, packed(1, 10)).b)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	shares, err := moduleShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"rf": 0.3, "exec": 0.6, "runtime.gc": 0.1}
	if len(shares) != len(want) {
		t.Fatalf("shares = %v, want %v", shares, want)
	}
	for m, w := range want {
		if math.Abs(shares[m]-w) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", m, shares[m], w)
		}
	}
}

func TestDecodeProfileRejectsTruncation(t *testing.T) {
	prof := new(protoBuf).bytes(6, []byte("sqlbarber/internal/rf.Train")).b
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof[:len(prof)-3])
	zw.Close()
	if _, err := decodeProfile(gz.Bytes()); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}
