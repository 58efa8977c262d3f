package main

import (
	"context"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"

	"sqlbarber/internal/llm"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/pipeline"
)

// cpuTime is the process's user+sys CPU so far. Steal inflates wall time
// only, so CPU is the steady timing on a shared VM.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's ru_maxrss (KiB on Linux) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024
}

var runtimeNames = [...]string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

// runtimeSample holds the runtimeNames values, in order.
type runtimeSample [len(runtimeNames)]float64

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var out runtimeSample
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		}
	}
	return out
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// oracleTimer is the benchmark's own llm.Middleware: it times every oracle
// call and counts calls by kind. Composed with llm.Chain, the wrapped oracle
// stays Forkable and Metered, so the pipeline's parallel forks share it.
type oracleTimer struct {
	mu     sync.Mutex
	durs   []time.Duration
	byKind map[llm.CallKind]int64
}

func newOracleTimer() *oracleTimer { return &oracleTimer{byKind: map[llm.CallKind]int64{}} }

func (t *oracleTimer) Wrap(next llm.Handler) llm.Handler {
	return func(ctx context.Context, c *llm.Call) (llm.Reply, error) {
		t0 := time.Now()
		rep, err := next(ctx, c)
		d := time.Since(t0)
		t.mu.Lock()
		t.durs = append(t.durs, d)
		t.byKind[c.Kind]++
		t.mu.Unlock()
		return rep, err
	}
}

// layerTotals sums one traced pass's per-layer observations over its jobs.
type layerTotals struct {
	jobs       int
	spans      map[string]time.Duration // span name → summed duration
	counters   map[string]int64         // obs counter → summed value
	probes     float64                  // profiler probes
	valid      int                      // valid generated templates
	delivered  int
	explain    int64
	exec       int64
	validate   int64
	planHits   int64
	planMisses int64
	ledgerMu   sync.Mutex
	ledgers    []*llm.Ledger
	timer      *oracleTimer
}

func newLayerTotals() *layerTotals {
	return &layerTotals{
		spans:    map[string]time.Duration{},
		counters: map[string]int64{},
		timer:    newOracleTimer(),
	}
}

// tracedSpans are the spans whose time the layer metrics report.
var tracedSpans = []string{"stage:generate", "stage:intervals", "stage:profile", "refine", "search", "stage:assemble"}

// tracedCounters are the collector-owned counters the layer metrics report.
var tracedCounters = []string{
	obs.MGenAttempts, obs.MStaticSpecCatches, obs.MStaticExecCatches,
	obs.MIntervalsPruned, obs.MIntervalsProbesSaved,
	obs.MSearchEvals, obs.MSearchRounds,
	obs.MRefineGenerated, obs.MRefineAccepted,
}

// addJob folds one traced job's collector and result into the totals.
func (t *layerTotals) addJob(col *obs.Collector, res *pipeline.Result) {
	t.jobs++
	for _, e := range col.Events() {
		if e.Kind == obs.KindSpanEnd && slices.Contains(tracedSpans, e.Name) {
			t.spans[e.Name] += e.Dur
		}
	}
	snap := col.Snapshot()
	for _, name := range tracedCounters {
		t.counters[name] += snap.Counter(name)
	}
	for _, h := range snap.Histograms {
		if h.Name == obs.HProfileProbes {
			t.probes += h.Sum
		}
	}
	for _, g := range res.GenResults {
		if g.Valid {
			t.valid++
		}
	}
	t.delivered += len(res.Workload)
}

// addLedger registers a traced job's oracle ledger for the token totals.
func (t *layerTotals) addLedger(l *llm.Ledger) {
	t.ledgerMu.Lock()
	t.ledgers = append(t.ledgers, l)
	t.ledgerMu.Unlock()
}

func (t *layerTotals) tokens() (prompt, completion int64) {
	t.ledgerMu.Lock()
	defer t.ledgerMu.Unlock()
	for _, l := range t.ledgers {
		prompt += l.PromptTokens()
		completion += l.CompletionTokens()
	}
	return prompt, completion
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
