package main

import (
	"encoding/json"
	"math/rand"
	"strconv"

	"sqlbarber/internal/engine"
	"sqlbarber/internal/realworld"
	"sqlbarber/internal/server"
	"sqlbarber/internal/stats"
)

// job is one workload-generation request the benchmark runs to completion.
// req.Seed drives the Redset-derived specs, the simulated oracle and the
// pipeline. dataSeed is the dataset's seed; on the daemon it always equals
// req.Seed, because sqlbarberd builds each job's dataset from the request
// seed.
type job struct {
	req      server.JobRequest
	dataSeed int64
}

// key identifies a job's inputs: two jobs with equal keys must produce
// byte-identical artifacts.
func (j job) key() string {
	b, err := json.Marshal(j.req)
	if err != nil {
		panic(err) // JobRequest holds only plain fields
	}
	return string(b) + "|data=" + strconv.FormatInt(j.dataSeed, 10)
}

// triple names the dataset a job runs against.
type triple struct {
	dataset string
	seed    int64
	sf      float64
}

func (j job) triple() triple { return triple{j.req.Dataset, j.dataSeed, j.req.ScaleFactor} }

// kind maps the request's cost kind the way sqlbarberd does.
func (j job) kind() engine.CostKind {
	switch j.req.CostKind {
	case "plancost":
		return engine.PlanCost
	case "rows":
		return engine.RowsProcessed
	}
	return engine.Cardinality
}

// target builds the request's cost target the way sqlbarberd does, so an
// in-process run of a daemon request produces the daemon's artifact.
func (j job) target() *stats.TargetDistribution {
	r := j.req
	switch r.Distribution {
	case "normal":
		return stats.Normal(0, r.RangeHi, r.Intervals, r.Queries, r.RangeHi/2, r.RangeHi/5)
	case "snowset-cost":
		return realworld.SnowsetCost(0, r.RangeHi, r.Intervals, r.Queries)
	}
	return stats.Uniform(0, r.RangeHi, r.Intervals, r.Queries)
}

func openDB(t triple) *engine.DB {
	if t.dataset == "imdb" {
		return engine.OpenIMDB(t.seed, t.sf)
	}
	return engine.OpenTPCH(t.seed, t.sf)
}

// workloadDef is one benchmark workload: how its job list derives from the
// seed and the run length, and whether it runs through sqlbarberd.
type workloadDef struct {
	name   string
	daemon bool
	jobs   func(seed int64, seconds int) []job
}

var workloads = []workloadDef{
	{name: "rows-tpch", jobs: rowsTPCHJobs},
	{name: "plancost-imdb", jobs: plancostIMDBJobs},
	{name: "daemon-mix", daemon: true, jobs: daemonMixJobs},
}

// Every workload pins its request shapes and datasets: the in-process
// workloads submit request seeds 1..n against dataset seed 1. A request's
// seed alone moves a job's cost by up to 50x, and on rows-tpch the dataset
// seed moves cpu_s and db_calls by 10-20%, so a job list drawn from the
// benchmark seed would make the per-job means a lottery over a few heavy
// jobs. The benchmark seed orders the jobs.
const inProcessDataSeed = 1

// rowsTPCHJobs: RowsProcessed on small-sf TPC-H, uniform target, Parallel 2.
func rowsTPCHJobs(seed int64, seconds int) []job {
	return pinnedJobs(seed, max(4, 2*seconds), server.JobRequest{
		Dataset: "tpch", ScaleFactor: 0.02, CostKind: "rows", Distribution: "uniform",
		Queries: 40, Intervals: 8, RangeHi: 500, Parallel: 2,
	})
}

// plancostIMDBJobs: PlanCost on the 21-table IMDB, snowset-cost target,
// Parallel 1.
func plancostIMDBJobs(seed int64, seconds int) []job {
	return pinnedJobs(seed, max(3, seconds), server.JobRequest{
		Dataset: "imdb", ScaleFactor: 0.5, CostKind: "plancost", Distribution: "snowset-cost",
		Queries: 300, Intervals: 10, RangeHi: 2500, Parallel: 1,
	})
}

func pinnedJobs(seed int64, n int, shape server.JobRequest) []job {
	jobs := make([]job, n)
	for i, p := range rand.New(rand.NewSource(seed)).Perm(n) {
		req := shape
		req.Seed = int64(p + 1)
		jobs[i] = job{req: req, dataSeed: inProcessDataSeed}
	}
	return jobs
}

// daemonCycle is daemon-mix's fixed request cycle: cardinality and plancost
// on both datasets, with the (dataset, seed, sf) triples tpch/11 and imdb/12
// each used by two requests. The imdb/15 request falls one query short of
// its target, so delivered_frac and w1_dist guard a real shortfall.
var daemonCycle = []server.JobRequest{
	{Dataset: "tpch", Seed: 11, CostKind: "cardinality", Distribution: "uniform"},
	{Dataset: "imdb", Seed: 12, CostKind: "plancost", Distribution: "uniform"},
	{Dataset: "tpch", Seed: 11, CostKind: "plancost", Distribution: "snowset-cost"},
	{Dataset: "imdb", Seed: 15, CostKind: "cardinality", Distribution: "snowset-cost", RangeHi: 5000},
	{Dataset: "tpch", Seed: 14, CostKind: "cardinality", Distribution: "snowset-cost"},
	{Dataset: "imdb", Seed: 12, CostKind: "cardinality", Distribution: "normal"},
	{Dataset: "tpch", Seed: 15, CostKind: "plancost", Distribution: "uniform"},
	{Dataset: "imdb", Seed: 16, CostKind: "plancost", Distribution: "snowset-cost"},
}

// daemonShape fills the fields every daemon-mix request shares. The scale
// factor makes the per-job dataset build a sizeable share of each job.
func daemonShape(r server.JobRequest) server.JobRequest {
	r.ScaleFactor, r.Queries, r.Intervals, r.Parallel = 0.5, 100, 8, 1
	if r.RangeHi == 0 {
		r.RangeHi = 2500
	}
	return r
}

// daemonMixJobs repeats the cycle; the seed shuffles each repetition, so
// every seed submits the same multiset of requests in its own order.
func daemonMixJobs(seed int64, seconds int) []job {
	reps := max(2, (3*seconds+len(daemonCycle)-1)/len(daemonCycle))
	rng := rand.New(rand.NewSource(seed))
	var jobs []job
	for range reps {
		for _, p := range rng.Perm(len(daemonCycle)) {
			req := daemonShape(daemonCycle[p])
			jobs = append(jobs, job{req: req, dataSeed: req.Seed})
		}
	}
	return jobs
}

// daemonWarmup is the small job that proves the daemon serves before the
// job phase starts.
func daemonWarmup() job {
	req := server.JobRequest{Dataset: "tpch", ScaleFactor: 0.02, Seed: 1, CostKind: "cardinality",
		Distribution: "uniform", Queries: 20, Intervals: 4, RangeHi: 2500, Parallel: 1}
	return job{req: req, dataSeed: req.Seed}
}
