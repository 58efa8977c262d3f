package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlbarber/internal/llm"
	"sqlbarber/internal/server"
)

// daemonClients is daemon-mix's closed-loop client count.
const daemonClients = 2

// daemon is one sqlbarberd instance on a loopback listener.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	dir    string
	cancel context.CancelFunc
	served chan error
	client *http.Client

	ledgerMu sync.Mutex
	ledgers  []*llm.Ledger
}

// startDaemon builds the service (2 workers) and binds its listener. wrap,
// when non-nil, wraps each job's simulated oracle; it goes in through the
// server's oracle factory.
func startDaemon(ctx context.Context, dir string, wrap func(*llm.SimLLM) llm.Oracle) (*daemon, error) {
	d := &daemon{dir: dir, served: make(chan error, 1), client: &http.Client{}}
	sctx, cancel := context.WithCancel(ctx)
	d.cancel = cancel
	srv, err := server.New(sctx, server.Options{
		Workers:     2,
		ArtifactDir: dir,
		Oracle: func(seed int64) llm.Oracle {
			sim := llm.NewSim(llm.SimOptions{Seed: seed})
			d.ledgerMu.Lock()
			d.ledgers = append(d.ledgers, sim.Ledger())
			d.ledgerMu.Unlock()
			if wrap != nil {
				return wrap(sim)
			}
			return sim
		},
	})
	if err != nil {
		cancel()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	d.srv = srv
	d.hs = &http.Server{Handler: srv.Handler()}
	d.base = "http://" + ln.Addr().String()
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the pool, shuts the listener and waits for Serve to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := d.srv.Drain(ctx)
	serr := d.hs.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	d.cancel()
	d.client.CloseIdleConnections()
	return errors.Join(derr, serr, os.RemoveAll(d.dir))
}

// oracleLedgers returns the ledgers of every oracle the daemon has built.
func (d *daemon) oracleLedgers() []*llm.Ledger {
	d.ledgerMu.Lock()
	defer d.ledgerMu.Unlock()
	return slices.Clone(d.ledgers)
}

// pass runs jobs over daemonClients closed-loop clients: each client submits
// a job, awaits it over SSE, downloads the artifact, then takes the next.
func (d *daemon) pass(ctx context.Context, jobs []job) phase {
	from := len(d.oracleLedgers())
	ph := measure(func() []outcome {
		outs := make([]outcome, len(jobs))
		var next atomic.Int64
		var wg sync.WaitGroup
		for range daemonClients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(jobs) {
						return
					}
					outs[i] = d.run(ctx, jobs[i])
				}
			}()
		}
		wg.Wait()
		return outs
	})
	for _, l := range d.oracleLedgers()[from:] {
		ph.usd += l.CostUSD()
	}
	return ph
}

// run submits one job and follows it to its downloaded artifact.
func (d *daemon) run(ctx context.Context, j job) outcome {
	o := outcome{job: j}
	fail := func(format string, args ...any) outcome {
		o.failed, o.err = true, fmt.Sprintf(format, args...)
		return o
	}
	body, err := json.Marshal(j.req)
	if err != nil {
		return fail("encoding request: %v", err)
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/api/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return fail("building submit: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return fail("submit: %v", err)
	}
	var st server.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	o.submit = time.Since(t0)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		o.refused = true
		return fail("refused with %d", resp.StatusCode)
	case resp.StatusCode != http.StatusAccepted:
		return fail("submit: status %d", resp.StatusCode)
	case derr != nil:
		return fail("decoding submit reply: %v", derr)
	}
	final, err := d.await(ctx, st.ID)
	if err != nil {
		return fail("awaiting %s: %v", st.ID, err)
	}
	t1 := time.Now()
	art, err := d.get(ctx, "/api/v1/jobs/"+st.ID+"/result")
	o.result = time.Since(t1)
	o.wall = time.Since(t0)
	if err != nil {
		return fail("downloading %s: %v", st.ID, err)
	}
	o.artifact = art
	o.delivered = final.Queries
	o.distance = final.Distance
	o.dbCalls = final.DBCalls
	o.elapsed = time.Duration(final.ElapsedMS) * time.Millisecond
	o.queueWait = time.Duration(final.QueueWaitMS) * time.Millisecond
	if final.State != string(server.StateDone) || final.Partial {
		return fail("job %s ended %s (partial=%v): %s", st.ID, final.State, final.Partial, final.Error)
	}
	return o
}

// await follows the job's SSE stream to its terminal "done" event, whose
// payload is the job's final status.
func (d *daemon) await(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/api/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return st, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && event == "done" {
			err := json.Unmarshal([]byte(data), &st)
			return st, err
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, errors.New("event stream ended before done")
}

func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return b, nil
}
