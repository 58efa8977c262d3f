package llm

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"sqlbarber/internal/catalog"
	"sqlbarber/internal/obs"
	"sqlbarber/internal/prand"
	"sqlbarber/internal/spec"
	"sqlbarber/internal/sqltemplate"
)

// SimOptions configures the simulated LLM. Error rates are calibrated so
// that an initial batch of generations reproduces Figure 8a's starting point
// (few templates spec-compliant, a minority syntactically valid) and the
// check-and-rewrite loop converges within a handful of attempts.
type SimOptions struct {
	Seed int64
	// SpecErrorRate is the probability a fresh generation violates its
	// specification (default 0.9).
	SpecErrorRate float64
	// SyntaxErrorRate is the probability a fresh generation contains a
	// syntax or schema error (default 0.65).
	SyntaxErrorRate float64
	// FixSuccessRate is the probability a Fix* call actually repairs the
	// template (default 0.7).
	FixSuccessRate float64
	// JudgeErrorRate is the probability ValidateSemantics misjudges
	// (default 0.02).
	JudgeErrorRate float64
	// Latency, when positive, is slept on every call to model API
	// round-trips in wall-clock experiments.
	Latency time.Duration
}

func (o SimOptions) withDefaults() SimOptions {
	if o.SpecErrorRate == 0 {
		o.SpecErrorRate = 0.9
	}
	if o.SyntaxErrorRate == 0 {
		o.SyntaxErrorRate = 0.65
	}
	if o.FixSuccessRate == 0 {
		o.FixSuccessRate = 0.7
	}
	if o.JudgeErrorRate == 0 {
		o.JudgeErrorRate = 0.02
	}
	return o
}

// Perfect returns options with no hallucination — useful for tests that
// need a deterministic, always-correct oracle.
func Perfect(seed int64) SimOptions {
	return SimOptions{Seed: seed, SpecErrorRate: -1, SyntaxErrorRate: -1, FixSuccessRate: 1, JudgeErrorRate: -1}
}

// SimLLM is the simulated language model. It is NOT a statistical model: it
// is a schema-aware SQL synthesizer with controlled error injection,
// sufficient to exercise every oracle-facing code path of SQLBarber.
type SimLLM struct {
	opts   SimOptions
	rng    *rand.Rand
	ledger *Ledger
	sink   *transcriptSink
}

var (
	_ Oracle   = (*SimLLM)(nil)
	_ Forkable = (*SimLLM)(nil)
)

// transcriptSink serializes transcript writes across an oracle and all of
// its forks so interleaved parallel calls stay readable and race-free.
type transcriptSink struct {
	mu    sync.Mutex
	w     io.Writer
	calls int
}

func (t *transcriptSink) log(prompt, completion string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls++
	if t.w != nil {
		fmt.Fprintf(t.w, "=== call %d ===\n--- prompt ---\n%s\n--- response ---\n%s\n\n", t.calls, prompt, completion)
	}
}

// NewSim creates a simulated LLM.
func NewSim(opts SimOptions) *SimLLM {
	o := opts.withDefaults()
	return &SimLLM{opts: o, rng: rand.New(rand.NewSource(o.Seed)), ledger: &Ledger{}, sink: &transcriptSink{}}
}

// Ledger exposes the token/cost meter.
func (s *SimLLM) Ledger() *Ledger { return s.ledger }

// SetTranscript directs a full prompt/response log of every oracle call to
// w (nil disables). Useful for auditing what the pipeline asked of the LLM.
// The writer is shared with every fork of this oracle.
func (s *SimLLM) SetTranscript(w io.Writer) {
	s.sink.mu.Lock()
	s.sink.w = w
	s.sink.mu.Unlock()
}

// Fork derives an independent child oracle for one parallel task. The child
// shares this oracle's ledger and transcript but draws from a private
// random stream mixed from (Seed, StageOracle, stream), so its hallucination
// coin flips are a pure function of the task coordinate — never of goroutine
// scheduling.
func (s *SimLLM) Fork(stream int64) Oracle {
	return &SimLLM{
		opts:   s.opts,
		rng:    prand.New(s.opts.Seed, prand.StageOracle, stream),
		ledger: s.ledger,
		sink:   s.sink,
	}
}

func (s *SimLLM) charge(ctx context.Context, prompt, completion string) {
	if s.opts.Latency > 0 {
		t := time.NewTimer(s.opts.Latency)
		select {
		case <-ctx.Done():
			t.Stop()
		case <-t.C:
		}
	}
	s.sink.log(prompt, completion)
	// Simulated chain-of-thought: o3-mini bills reasoning tokens as output;
	// approximate with a 3x multiplier on the visible completion.
	s.ledger.Record(prompt, completion+strings.Repeat(" r", CountTokens(completion)*3))
}

func (s *SimLLM) hit(rate float64) bool { return s.rng.Float64() < rate }

// GenerateTemplate synthesizes a template with hallucination injection.
func (s *SimLLM) GenerateTemplate(ctx context.Context, req GenerateRequest) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	obs.FromContext(ctx).Count(obs.MLLMGenerateCalls, 1)
	prompt := buildGeneratePrompt(req)
	sql := synthesize(synthOptions{
		schema:      req.Schema,
		path:        req.JoinPath,
		spec:        req.Spec,
		rng:         s.rng,
		breakSpec:   s.hit(s.opts.SpecErrorRate),
		breakSyntax: s.hit(s.opts.SyntaxErrorRate),
	})
	s.charge(ctx, prompt, sql)
	return sql, nil
}

// ValidateSemantics judges spec compliance by analyzing the template's real
// features, with a small misjudgment rate.
func (s *SimLLM) ValidateSemantics(ctx context.Context, templateSQL string, sp spec.Spec) (bool, []string, error) {
	if err := ctx.Err(); err != nil {
		return false, nil, err
	}
	obs.FromContext(ctx).Count(obs.MLLMJudgeCalls, 1)
	prompt := buildValidatePrompt(templateSQL, sp.Describe())
	t, err := sqltemplate.Parse(templateSQL)
	if err != nil {
		resp := "The template is not parseable SQL, so the specification cannot hold."
		s.charge(ctx, prompt, resp)
		return false, []string{"template is not valid SQL: " + err.Error()}, nil
	}
	ok, violations := sp.Check(t.Features())
	if s.hit(s.opts.JudgeErrorRate) {
		// Hallucinated judgment.
		if ok {
			violations = []string{"the number of joins looks wrong"}
			ok = false
		} else {
			ok = true
			violations = nil
		}
	}
	s.charge(ctx, prompt, strings.Join(violations, "; ")+" ok")
	return ok, violations, nil
}

// FixSemantics rewrites the template to satisfy the spec, succeeding with
// FixSuccessRate.
func (s *SimLLM) FixSemantics(ctx context.Context, templateSQL string, sp spec.Spec, violations []string, req GenerateRequest) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	obs.FromContext(ctx).Count(obs.MLLMFixSemanticsCalls, 1)
	prompt := buildFixSemanticsPrompt(templateSQL, sp.Describe(), violations)
	success := s.hit(s.opts.FixSuccessRate)
	sql := synthesize(synthOptions{
		schema:      req.Schema,
		path:        req.JoinPath,
		spec:        sp,
		rng:         s.rng,
		breakSpec:   !success,
		breakSyntax: s.hit(s.opts.SyntaxErrorRate * 0.4), // fixes reintroduce fewer syntax bugs
	})
	s.charge(ctx, prompt, sql)
	return sql, nil
}

// FixExecution repairs a DBMS error, succeeding with FixSuccessRate.
func (s *SimLLM) FixExecution(ctx context.Context, templateSQL string, dbmsError string, req GenerateRequest) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	obs.FromContext(ctx).Count(obs.MLLMFixExecutionCalls, 1)
	prompt := buildFixExecutionPrompt(templateSQL, dbmsError)
	success := s.hit(s.opts.FixSuccessRate)
	sql := synthesize(synthOptions{
		schema:      req.Schema,
		path:        req.JoinPath,
		spec:        req.Spec,
		rng:         s.rng,
		breakSpec:   false,
		breakSyntax: !success,
	})
	s.charge(ctx, prompt, sql)
	return sql, nil
}

// RefineTemplate produces a template variant whose reachable cost range
// moves toward the target interval: it re-plans the join path over larger or
// smaller tables while preserving the specification, and uses the few-shot
// history to avoid structures that already failed (Algorithm 2 phase 2).
func (s *SimLLM) RefineTemplate(ctx context.Context, req RefineRequest) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	obs.FromContext(ctx).Count(obs.MLLMRefineCalls, 1)
	prompt := buildRefinePrompt(req)
	cur, err := sqltemplate.Parse(req.TemplateSQL)
	if err != nil {
		// Refining garbage: synthesize fresh from any path.
		var path catalog.JoinPath
		if ranked := rankedPaths(req.Schema, 1, 20); len(ranked) > 0 {
			path = ranked[s.rng.Intn(len(ranked))].path
		} else {
			paths := req.Schema.JoinPaths(0, 10)
			path = paths[s.rng.Intn(len(paths))]
		}
		sql := synthesize(synthOptions{schema: req.Schema, path: path, spec: req.Spec, rng: s.rng})
		s.charge(ctx, prompt, sql)
		return sql, nil
	}
	feats := cur.Features()
	numJoins := feats.NumJoins
	if req.Spec.NumJoins != nil {
		numJoins = *req.Spec.NumJoins
	}
	curTables := templateTables(cur)
	curScore := pathScore(req.Schema, catalog.JoinPath{Tables: curTables})

	// Direction: do observed costs sit below or above the target?
	med := median(req.Costs)
	wantHigher := med < req.Target.Center()

	// Structures already tried for this interval (few-shot history).
	tried := map[string]bool{tableSetKey(curTables): true}
	for _, h := range req.History {
		if ht, err := sqltemplate.Parse(h.TemplateSQL); err == nil {
			tried[tableSetKey(templateTables(ht))] = true
		}
	}

	paths := rankedPaths(req.Schema, numJoins, 64)
	var candidates []scoredPath
	for _, p := range paths {
		if wantHigher && p.score <= curScore {
			continue
		}
		if !wantHigher && p.score >= curScore {
			continue
		}
		if tried[tableSetKey(p.path.Tables)] {
			continue
		}
		candidates = append(candidates, p)
	}
	if len(candidates) == 0 {
		// No structural move available in the wanted direction; fall back to
		// untried paths at the same join count, then to a re-roll of the
		// same path with different predicate columns.
		for _, p := range paths {
			if !tried[tableSetKey(p.path.Tables)] {
				candidates = append(candidates, p)
			}
		}
	}
	var path catalog.JoinPath
	if len(candidates) > 0 {
		if wantHigher {
			// Prefer the largest remaining structures.
			sort.SliceStable(candidates, func(i, j int) bool { return candidates[i].score > candidates[j].score })
		} else {
			sort.SliceStable(candidates, func(i, j int) bool { return candidates[i].score < candidates[j].score })
		}
		top := 3
		if len(candidates) < top {
			top = len(candidates)
		}
		path = candidates[s.rng.Intn(top)].path
	} else {
		path = catalog.JoinPath{Tables: curTables}
		if len(paths) > 0 {
			path = paths[s.rng.Intn(len(paths))].path
		}
	}
	sql := synthesize(synthOptions{schema: req.Schema, path: path, spec: req.Spec, rng: s.rng})
	s.charge(ctx, prompt, sql)
	return sql, nil
}

// templateTables extracts the ordered FROM/JOIN tables of the outer query.
func templateTables(t *sqltemplate.Template) []string {
	var out []string
	if t.Stmt.From != nil {
		out = append(out, t.Stmt.From.Table)
	}
	for _, j := range t.Stmt.Joins {
		out = append(out, j.Table.Table)
	}
	return out
}

func tableSetKey(tables []string) string {
	cp := make([]string, len(tables))
	for i, t := range tables {
		cp[i] = strings.ToLower(t)
	}
	sort.Strings(cp)
	return strings.Join(cp, ",")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}
