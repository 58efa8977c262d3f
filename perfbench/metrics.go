package main

import (
	"time"

	"sqlbarber/internal/llm"
	"sqlbarber/internal/obs"
)

// endToEnd computes the metrics a user of the system sees, from a plain
// (untraced) pass. Per-job figures are means over the completed jobs.
func endToEnd(setup []time.Duration, ph phase, rssMB float64, g *gates) metricSet {
	done := ph.completed()
	n := float64(len(done))
	var walls []float64
	var requested, delivered, dbCalls float64
	for _, o := range done {
		walls = append(walls, o.wall.Seconds())
		requested += float64(o.job.req.Queries)
		delivered += float64(o.delivered)
		dbCalls += float64(o.dbCalls)
	}
	m := metricSet{}
	m.add("setup_s", median(seconds(setup)), "s")
	m.add("job_p50_s", median(walls), "s")
	m.add("jobs_per_s", ratio(n, ph.wall.Seconds()), "1/s")
	m.add("cpu_s", ratio(ph.cpu.Seconds(), n), "s")
	m.add("peak_rss_mb", rssMB, "MB")
	m.add("delivered_frac", ratio(delivered, requested), "ratio")
	m.add("w1_dist", mean(g.w1), "cost")
	m.add("llm_usd", ratio(ph.usd, n), "USD")
	m.add("db_calls", ratio(dbCalls, n), "count")
	m.add("completed_frac", ratio(n, float64(len(ph.outs))), "ratio")
	return m
}

// layerMetrics computes the per-layer metrics of a traced run. llmT holds
// the oracle timings and ledgers, obsT the collector and engine totals
// (the same totals in-process; the daemon's traced pass and its in-process
// twins on daemon-mix). plain is the same job list untraced.
func layerMetrics(llmT, obsT *layerTotals, plain, traced phase, shares map[string]float64, g *gates) metricSet {
	m := metricSet{}
	perL := float64(max(1, llmT.jobs))
	per := float64(max(1, obsT.jobs))

	m.add("datagen.build_s", median(seconds(g.builds)), "s")
	m.add("datagen.cpu_share", shares["datagen"], "ratio")

	llmT.timer.mu.Lock()
	durs, byKind := llmT.timer.durs, llmT.timer.byKind
	var busy time.Duration
	var us []float64
	for _, d := range durs {
		busy += d
		us = append(us, float64(d.Nanoseconds())/1e3)
	}
	gen := byKind[llm.CallGenerate] + byKind[llm.CallValidate] + byKind[llm.CallFixSemantics] + byKind[llm.CallFixExecution]
	refineCalls := byKind[llm.CallRefine]
	llmT.timer.mu.Unlock()
	prompt, completion := llmT.tokens()
	m.add("llm.calls", float64(len(durs))/perL, "count")
	m.add("llm.busy_s", busy.Seconds()/perL, "s")
	m.add("llm.call_p50_us", median(us), "us")
	m.add("llm.prompt_tokens", float64(prompt)/perL, "count")
	m.add("llm.completion_tokens", float64(completion)/perL, "count")
	m.add("llm.refine_calls", float64(refineCalls)/perL, "count")
	m.add("llm.generate_calls", float64(gen)/perL, "count")

	span := func(name string) float64 { return obsT.spans[name].Seconds() / per }
	count := func(name string) float64 { return float64(obsT.counters[name]) }
	m.add("generator.span_s", span("stage:generate"), "s")
	m.add("generator.attempts", count(obs.MGenAttempts)/per, "count")
	m.add("generator.valid_ratio", ratio(float64(obsT.valid), count(obs.MGenAttempts)), "ratio")
	m.add("analyzer.static_catches", (count(obs.MStaticSpecCatches)+count(obs.MStaticExecCatches))/per, "count")
	m.add("intervals.span_s", span("stage:intervals"), "s")
	m.add("intervals.pruned", count(obs.MIntervalsPruned)/per, "count")
	m.add("intervals.probes_saved", count(obs.MIntervalsProbesSaved)/per, "count")
	m.add("profiler.span_s", span("stage:profile"), "s")
	m.add("profiler.probes", obsT.probes/per, "count")

	m.add("engine.explain_calls", float64(obsT.explain)/per, "count")
	m.add("engine.exec_calls", float64(obsT.exec)/per, "count")
	m.add("engine.validate_calls", float64(obsT.validate)/per, "count")
	m.add("engine.plan_cache_hit_ratio", ratio(float64(obsT.planHits), float64(obsT.planHits+obsT.planMisses)), "ratio")
	m.add("engine.replay_probe_us", ratio(float64(g.probeTime.Nanoseconds())/1e3, float64(g.probes)), "us")
	for _, mod := range []string{"engine", "plan", "exec", "bo", "rf", "prand"} {
		m.add(mod+".cpu_share", shares[mod], "ratio")
	}

	m.add("search.span_s", span("search"), "s")
	m.add("search.evaluations", count(obs.MSearchEvals)/per, "count")
	m.add("search.bo_rounds", count(obs.MSearchRounds)/per, "count")
	m.add("search.useful_ratio", ratio(float64(obsT.delivered), count(obs.MSearchEvals)), "ratio")
	m.add("refine.span_s", span("refine"), "s")
	m.add("refine.generated", count(obs.MRefineGenerated)/per, "count")
	m.add("refine.accept_ratio", ratio(count(obs.MRefineAccepted), count(obs.MRefineGenerated)), "ratio")
	m.add("workload.assemble_s", span("stage:assemble"), "s")

	// Go runtime figures come from the untraced pass, so tracing's own
	// allocations do not count.
	done := float64(max(1, len(plain.completed())))
	m.add("runtime.gc_cpu_share", ratio(plain.rt[0], plain.rt[1]), "ratio")
	m.add("runtime.alloc_mb", plain.rt[2]/(1<<20)/done, "MB")
	m.add("runtime.num_gc", plain.rt[3]/done, "count")

	tracedCPU := ratio(traced.cpu.Seconds(), float64(len(traced.completed())))
	m.add("obs.overhead_frac", ratio(tracedCPU, plain.cpu.Seconds()/done)-1, "ratio")
	return m
}

// serverMetrics adds sqlbarberd's per-job overheads, as medians over the
// completed daemon jobs, and its refusals. The in-process workloads have no
// server and report 0.
func serverMetrics(m metricSet, outs []outcome) {
	var wait, over, submit, result []float64
	rejected := 0
	for _, o := range outs {
		if o.refused {
			rejected++
		}
		if o.failed {
			continue
		}
		wait = append(wait, ms(o.queueWait))
		over = append(over, ms(o.wall-o.elapsed-o.queueWait))
		submit = append(submit, ms(o.submit))
		result = append(result, ms(o.result))
	}
	m.add("server.queue_wait_p50_ms", median(wait), "ms")
	m.add("server.overhead_ms", median(over), "ms")
	m.add("server.submit_ms", median(submit), "ms")
	m.add("server.result_ms", median(result), "ms")
	m.add("server.jobs_rejected", float64(rejected), "count")
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
