// Command perfbench is sqlbarber's end-to-end benchmark. Each workload runs
// a fixed list of workload-generation jobs to completion, from outside the
// program: through engine.Open*, pipeline.New(...).Run, llm.Chain, and
// server.New plus HTTP. A plain run (--trace 0) reports the end-to-end
// metrics; a traced run (--trace 1) adds an obs.Collector, an oracle timing
// middleware and a CPU profile, and reports per-layer metrics. Every run
// replays each delivered query against a fresh database and checks that
// equal inputs gave byte-identical workloads. See README.md.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload rows-tpch --seed 1 --seconds 15 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"time"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
)

// buildDir holds the benchmark's scratch files, relative to the checkout.
const buildDir = ".bench_build/perfbench"

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

func main() {
	name := flag.String("workload", "", "workload: rows-tpch|plancost-imdb|daemon-mix")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	secs := flag.Int("seconds", 10, "nominal run length; sizes the fixed job list")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == *name })
	if i < 0 || *secs < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *secs, *trace)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	def := workloads[i]
	run := runInProcess
	if def.daemon {
		run = runDaemon
	}
	rep, err := run(ctx, def.jobs(*seed, *secs), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		cancel()
		os.Exit(1)
	}
	rep.write(os.Stdout)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string) { m[name] = metric{v, unit} }

type report struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func newReport(g *gates, ph phase, m metricSet) *report {
	r := &report{Correct: g.ok(), Attempted: len(ph.outs), Metrics: m}
	for _, o := range ph.outs {
		if o.failed {
			r.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: job failed: %s: %s\n", o.job.key(), o.err)
		}
	}
	return r
}

// write prints every metric by name with its unit, then the JSON result as
// the last line.
func (r *report) write(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain structs and finite floats
	}
	fmt.Fprintf(w, "%s\n", b)
}

// profiled runs fn under a runtime/pprof CPU profile and attributes the
// samples to modules.
func profiled(fn func() phase) (phase, map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return phase{}, nil, err
	}
	ph := fn()
	pprof.StopCPUProfile()
	shares, err := moduleShares(buf.Bytes())
	return ph, shares, err
}

// runInProcess runs a job list whose jobs share one dataset, one after
// another in this process.
func runInProcess(ctx context.Context, jobs []job, trace bool) (*report, error) {
	var setup []time.Duration
	var db *engine.DB
	for range setupReps {
		t0 := time.Now()
		db = openDB(jobs[0].triple())
		setup = append(setup, time.Since(t0))
	}
	plain := localPass(ctx, db, jobs, nil)
	rss := peakRSSMB()
	g := &gates{builds: setup}
	g.replay(ctx, plain.outs)
	if err := g.checkStore(buildDir, plain.outs); err != nil {
		return nil, err
	}
	if !trace {
		g.consistent("untraced", plain.outs)
		return newReport(g, plain, endToEnd(setup, plain, rss, g)), nil
	}
	// The traced region builds its own dataset, so datagen's CPU share is
	// the build's share of one set-up plus the job list.
	lt := newLayerTotals()
	traced, shares, err := profiled(func() phase {
		return localPass(ctx, openDB(jobs[0].triple()), jobs, lt)
	})
	if err != nil {
		return nil, err
	}
	g.consistent("traced vs untraced", plain.outs, traced.outs)
	m := layerMetrics(lt, lt, plain, traced, shares, g)
	serverMetrics(m, nil)
	return newReport(g, traced, m), nil
}

// runDaemon runs a job list through sqlbarberd over loopback HTTP.
func runDaemon(ctx context.Context, jobs []job, trace bool) (*report, error) {
	dir := func(n int) string {
		return filepath.Join(buildDir, "artifacts-"+strconv.Itoa(os.Getpid())+"-"+strconv.Itoa(n))
	}
	var setup []time.Duration
	var d *daemon
	for r := range setupReps {
		t0 := time.Now()
		var err error
		if d, err = startDaemon(ctx, dir(r), nil); err != nil {
			return nil, err
		}
		if o := d.run(ctx, daemonWarmup()); o.failed {
			return nil, fmt.Errorf("warm-up job: %s (daemon stop: %v)", o.err, d.stop())
		}
		setup = append(setup, time.Since(t0))
		if r < setupReps-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	plain := d.pass(ctx, jobs)
	rss := peakRSSMB()
	if err := d.stop(); err != nil {
		return nil, err
	}
	g := &gates{}
	g.replay(ctx, plain.outs)
	if err := g.checkStore(buildDir, plain.outs); err != nil {
		return nil, err
	}
	if !trace {
		g.consistent("repeated requests", plain.outs)
		return newReport(g, plain, endToEnd(setup, plain, rss, g)), nil
	}
	// Traced daemon pass: the timing middleware goes in through the
	// server's oracle factory, and the CPU profile covers the whole pass.
	llmTotals := newLayerTotals()
	td, err := startDaemon(ctx, dir(setupReps), func(sim *llm.SimLLM) llm.Oracle {
		llmTotals.addLedger(sim.Ledger())
		return llm.Chain(sim, llmTotals.timer)
	})
	if err != nil {
		return nil, err
	}
	traced, shares, perr := profiled(func() phase { return td.pass(ctx, jobs) })
	if err := td.stop(); err != nil || perr != nil {
		return nil, fmt.Errorf("traced pass: %w", errors.Join(err, perr))
	}
	llmTotals.jobs = len(traced.completed())
	// The pipeline's own layers are not reachable through the daemon's
	// API, so one in-process twin of each distinct request runs under an
	// obs.Collector; its artifact must equal the daemon's.
	lt := newLayerTotals()
	twin := localPass(ctx, nil, jobs[:len(daemonCycle)], lt)
	g.consistent("daemon vs traced daemon vs in-process", plain.outs, traced.outs, twin.outs)
	m := layerMetrics(llmTotals, lt, plain, traced, shares, g)
	serverMetrics(m, plain.outs)
	return newReport(g, traced, m), nil
}
