package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/workload"
)

// replayTol is cmd/replay's relative cost tolerance.
const replayTol = 0.01

// annotationSlack absorbs the %.2f rounding of the artifact's cost
// annotations, which the relative tolerance alone rejects for costs
// below 0.5.
const annotationSlack = 0.005

// gates collects correctness and determinism violations. Any violation
// makes the run incorrect; the metrics are still reported.
type gates struct {
	problems []string

	builds    []time.Duration // fresh dataset builds for the replay
	probes    int
	probeTime time.Duration
	w1        []float64 // recomputed distance per completed job
}

func (g *gates) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(g.problems) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: gate:", msg)
	}
	g.problems = append(g.problems, msg)
}

func (g *gates) ok() bool { return len(g.problems) == 0 }

// replay re-costs every delivered query of every completed job with
// DB.Cost against a fresh database built from the job's (dataset, seed,
// sf), and recomputes each job's distance with workload.Distance.
func (g *gates) replay(ctx context.Context, outs []outcome) {
	dbs := map[triple]*engine.DB{}
	for _, o := range outs {
		if o.failed {
			continue
		}
		t := o.job.triple()
		db := dbs[t]
		if db == nil {
			t0 := time.Now()
			db = openDB(t)
			g.builds = append(g.builds, time.Since(t0))
			dbs[t] = db
		}
		qs, err := workload.ReadSQL(bytes.NewReader(o.artifact))
		if err != nil {
			g.failf("%s: unreadable artifact: %v", o.job.key(), err)
			continue
		}
		if len(qs) != o.delivered {
			g.failf("%s: artifact holds %d queries, job reported %d", o.job.key(), len(qs), o.delivered)
		}
		kind := o.job.kind()
		for i, q := range qs {
			t0 := time.Now()
			got, err := db.Cost(ctx, q.SQL, kind)
			g.probeTime += time.Since(t0)
			g.probes++
			if err != nil {
				g.failf("%s: query %d fails on replay: %v", o.job.key(), i, err)
				continue
			}
			if math.Abs(got-q.Cost) > annotationSlack && relDiff(got, q.Cost) > replayTol {
				g.failf("%s: query %d cost drift: recorded %.2f, replayed %.4f", o.job.key(), i, q.Cost, got)
			}
		}
		w1 := workload.Distance(qs, o.job.target())
		if math.Abs(w1-o.distance) > annotationSlack+replayTol*o.distance {
			g.failf("%s: recomputed distance %.4f, job reported %.4f", o.job.key(), w1, o.distance)
		}
		g.w1 = append(g.w1, w1)
	}
}

func relDiff(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

func artifactHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// consistent requires every completed job with the same inputs to have
// produced the same artifact, across all the given passes.
func (g *gates) consistent(label string, passes ...[]outcome) {
	seen := map[string]string{}
	for _, outs := range passes {
		for _, o := range outs {
			if o.failed {
				continue
			}
			k, h := o.job.key(), artifactHash(o.artifact)
			if prev, ok := seen[k]; ok && prev != h {
				g.failf("%s: %s artifact hash %s, earlier %s", label, k, h, prev)
			}
			seen[k] = h
		}
	}
}

// checkStore compares the run's hashes with those earlier runs of the same
// build recorded under dir, then records any new ones. The store is keyed by
// the executable's own hash, so a changed program starts a fresh store and
// nothing is pinned to a committed value.
func (g *gates) checkStore(dir string, outs []outcome) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "hashes-"+hex.EncodeToString(h.Sum(nil)[:8])+".json")
	store := map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &store); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	}
	changed := false
	for _, o := range outs {
		if o.failed {
			continue
		}
		k, hash := o.job.key(), artifactHash(o.artifact)
		if prev, ok := store[k]; ok && prev != hash {
			g.failf("%s: artifact hash %s, an earlier run of this build had %s", k, hash, prev)
			continue
		}
		if _, ok := store[k]; !ok {
			store[k], changed = hash, true
		}
	}
	if !changed || !g.ok() {
		return nil
	}
	b, err := json.Marshal(store)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp" + strconv.Itoa(os.Getpid())
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
