package main

import (
	"bytes"
	"context"
	"time"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/llm"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/pipeline"
	"sqlbarber/internal/realworld"
	"sqlbarber/internal/workload"
)

// outcome is what one job delivered, as seen from outside the program.
type outcome struct {
	job       job
	wall      time.Duration // submit (or pipeline.New) to artifact in hand
	failed    bool          // failed, cancelled, partial or refused
	refused   bool          // refused with 429/503
	err       string
	artifact  []byte // the WriteSQL artifact
	delivered int
	distance  float64 // as the program reported it
	dbCalls   int64
	usd       float64

	// daemon-mix only, from the job's final status and the client's clock
	elapsed, queueWait, submit, result time.Duration
}

// phase is one pass over a job list.
type phase struct {
	outs []outcome
	wall time.Duration
	cpu  time.Duration
	rt   runtimeSample
	usd  float64
}

func (p phase) completed() []outcome {
	var out []outcome
	for _, o := range p.outs {
		if !o.failed {
			out = append(out, o)
		}
	}
	return out
}

// measure runs fn and records the pass's wall time, process CPU and Go
// runtime deltas.
func measure(fn func() []outcome) phase {
	rt0, cpu0, t0 := readRuntime(), cpuTime(), time.Now()
	outs := fn()
	ph := phase{outs: outs, wall: time.Since(t0), cpu: cpuTime() - cpu0, rt: readRuntime().sub(rt0)}
	for _, o := range outs {
		ph.usd += o.usd
	}
	return ph
}

// localPass runs jobs one after another (one closed-loop client) in this
// process. db, when non-nil, is shared by every job; otherwise each job
// builds its own dataset, as sqlbarberd does. lt, when non-nil, traces the
// pass: each job gets its own obs.Collector through pipeline.WithObs and the
// oracle is wrapped in lt's timing middleware.
func localPass(ctx context.Context, db *engine.DB, jobs []job, lt *layerTotals) phase {
	return measure(func() []outcome {
		outs := make([]outcome, len(jobs))
		for i, j := range jobs {
			jdb := db
			if jdb == nil {
				jdb = openDB(j.triple())
			}
			outs[i] = runLocal(ctx, jdb, j, lt)
		}
		return outs
	})
}

func runLocal(ctx context.Context, db *engine.DB, j job, lt *layerTotals) outcome {
	o := outcome{job: j}
	sim := llm.NewSim(llm.SimOptions{Seed: j.req.Seed})
	var oracle llm.Oracle = sim
	opts := []pipeline.Option{
		pipeline.WithSeed(j.req.Seed),
		pipeline.WithParallel(j.req.Parallel),
		pipeline.WithCostKind(j.kind()),
	}
	var col *obs.Collector
	var e0 [5]int64
	if lt != nil {
		col = obs.NewCollector()
		opts = append(opts, pipeline.WithObs(col))
		oracle = llm.Chain(sim, lt.timer)
		lt.addLedger(sim.Ledger())
		e0 = engineCounts(db)
	}
	t0 := time.Now()
	p, err := pipeline.New(db, oracle, realworld.RedsetSpecs(j.req.Seed), j.target(), opts...)
	var res *pipeline.Result
	if err == nil {
		res, err = p.Run(ctx)
	}
	o.wall = time.Since(t0)
	if err != nil {
		o.failed, o.err = true, err.Error()
		return o
	}
	var buf bytes.Buffer
	if err := workload.WriteSQL(&buf, j.kind().String(), res.Workload); err != nil {
		o.failed, o.err = true, "rendering artifact: "+err.Error()
		return o
	}
	o.failed = res.Partial
	o.artifact = buf.Bytes()
	o.delivered = len(res.Workload)
	o.distance = res.Distance
	o.dbCalls = res.DBCalls
	o.usd = sim.Ledger().CostUSD()
	if lt != nil {
		lt.addJob(col, res)
		e1 := engineCounts(db)
		lt.explain += e1[0] - e0[0]
		lt.exec += e1[1] - e0[1]
		lt.validate += e1[2] - e0[2]
		lt.planHits += e1[3] - e0[3]
		lt.planMisses += e1[4] - e0[4]
	}
	return o
}

func engineCounts(db *engine.DB) [5]int64 {
	return [5]int64{db.ExplainCalls(), db.ExecCalls(), db.ValidateCalls(), db.PlanCacheHits(), db.PlanCacheMisses()}
}
