package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"silenttracker/internal/campaign"
	"silenttracker/internal/dist"
	"silenttracker/internal/serve"
	"silenttracker/st"
)

// daemon is an in-process stserve — the client, serve.Server and HTTP
// server cmd/stserve builds with its default flags — plus, for dist-cold,
// a fleet of in-process dist workers leasing from it over loopback.
type daemon struct {
	dir    string
	client *st.Client
	server *serve.Server
	http   *st.HTTPServer
	url    string
	tr     *http.Transport // the workers' protocol transport

	// Boundary timers, set on a traced daemon only.
	store  *timedStore
	routes *routeTimer
	leases *leaseSamples

	stopFleet context.CancelFunc
	fleet     sync.WaitGroup
}

// startDaemon starts a daemon over a fresh store in dir with fleet
// workers of one trial thread each.
func startDaemon(cfg config, dir string, traced bool, fleet int) (*daemon, error) {
	d := &daemon{dir: dir}
	opts := []st.Option{st.WithWorkers(cfg.load), st.WithMetrics(), st.WithSeed(cfg.campaignSeed)}
	if traced {
		disk, err := campaign.Open(dir)
		if err != nil {
			return nil, err
		}
		d.store = newTimedStore(campaign.NewTiered(campaign.NewMemStore(memBudget), disk))
		opts = append(opts, st.WithStore(d.store))
	} else {
		opts = append(opts, st.WithCacheDir(dir), st.WithMemCache(memBudget))
	}
	client, err := st.NewClient(opts...)
	if err != nil {
		return nil, err
	}
	d.client = client
	if d.server, err = serve.New(serve.Config{Client: client}); err != nil {
		d.stop()
		return nil, err
	}
	var h http.Handler = d.server
	if traced {
		d.routes = newRouteTimer(d.server)
		h = d.routes
	}
	d.http, err = st.NewHTTPServer("127.0.0.1:0", h, func(err error) {
		fmt.Fprintf(os.Stderr, "perfbench: daemon: %v\n", err)
	})
	if err != nil {
		d.stop()
		return nil, err
	}
	d.url = "http://" + d.http.Addr().String()
	if fleet == 0 {
		return d, nil
	}
	d.tr = http.DefaultTransport.(*http.Transport).Clone()
	if traced {
		d.leases = &leaseSamples{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.stopFleet = cancel
	for i := range fleet {
		hc := &http.Client{Transport: d.tr, Timeout: 30 * time.Second}
		if traced {
			hc.Transport = &leaseTimer{base: d.tr, sink: d.leases}
		}
		w, err := dist.NewWorker(dist.WorkerConfig{Coordinator: d.url,
			Name: fmt.Sprintf("worker-%d", i), Jobs: 1, HTTPClient: hc})
		if err != nil {
			d.stop()
			return nil, err
		}
		d.fleet.Add(1)
		go func() {
			defer d.fleet.Done()
			w.Run(ctx) // returns ctx.Err() once stop cancels the fleet
		}()
	}
	return d, nil
}

// stop stops the fleet, drains the daemon, closes its listener and store,
// and removes the store's directory; it returns once every goroutine the
// daemon started has ended.
func (d *daemon) stop() {
	if d.stopFleet != nil {
		d.stopFleet()
		d.fleet.Wait()
		d.tr.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if d.server != nil {
		if err := d.server.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: daemon drain: %v\n", err)
		}
	}
	if d.http != nil {
		if err := d.http.Stop(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: daemon stop: %v\n", err)
		}
	}
	d.client.Close() // built-in and timed stores never fail Close
	os.RemoveAll(d.dir)
}

// jobSpec shapes the jobs a loop submits.
type jobSpec struct {
	req    func(name string, client int) st.JobRequest
	format string // result rendering: "text" or "bench"
	warm   bool   // the store holds every unit: a job that computes fails
}

// jobPhase is what a job loop measured.
type jobPhase struct {
	wall, cpu time.Duration
	ok        []time.Duration // latencies of the jobs that succeeded
}

// jobLoop runs cfg.load closed-loop clients against the daemon, cycling
// through order, until budget has passed (budget > 0) or n jobs have been
// issued. A job's latency runs from its POST to the last byte of its
// result.
func (d *daemon) jobLoop(ctx context.Context, cfg config, spec jobSpec, order []string,
	refs map[string][]byte, budget time.Duration, n int, t *tally, onEvent func(st.JobEvent)) jobPhase {
	tr := &http.Transport{MaxIdleConnsPerHost: 2 * cfg.load}
	defer tr.CloseIdleConnections()
	var (
		next atomic.Int64
		mu   sync.Mutex
		jp   jobPhase
		wg   sync.WaitGroup
	)
	cpu0, t0 := cpuTime(), time.Now()
	for c := range cfg.load {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := &http.Client{Transport: tr}
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if (n > 0 && i >= n) || (budget > 0 && time.Since(t0) >= budget) {
					return
				}
				name := order[i%len(order)]
				j0 := time.Now()
				got, err := d.job(ctx, hc, spec, spec.req(name, c), onEvent)
				lat := time.Since(j0)
				if t.record(name+" job", got, refs[name], err) {
					mu.Lock()
					jp.ok = append(jp.ok, lat)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	jp.wall, jp.cpu = time.Since(t0), cpuTime()-cpu0
	return jp
}

// job submits one job, follows its event stream to the terminal frame and
// reads its rendered result.
func (d *daemon) job(ctx context.Context, hc *http.Client, spec jobSpec, req st.JobRequest,
	onEvent func(st.JobEvent)) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var status st.JobStatus
	if err := d.call(ctx, hc, http.MethodPost, "/jobs", body, http.StatusAccepted, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&status)
	}); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	var final *st.JobStatus
	if err := d.call(ctx, hc, http.MethodGet, "/jobs/"+status.ID+"/events", nil, http.StatusOK, func(r io.Reader) error {
		final, err = followEvents(r, onEvent)
		return err
	}); err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	if final.State != st.JobDone {
		return nil, fmt.Errorf("job %s ended %s: %s", status.ID, final.State, final.Error)
	}
	if spec.warm && final.Stats != nil && final.Stats.Computed > 0 {
		return nil, fmt.Errorf("job %s computed %d units from a filled store", status.ID, final.Stats.Computed)
	}
	var out []byte
	if err := d.call(ctx, hc, http.MethodGet, "/jobs/"+status.ID+"/result?format="+spec.format, nil, http.StatusOK, func(r io.Reader) error {
		out, err = io.ReadAll(r)
		return err
	}); err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	return out, nil
}

// call makes one request and hands the body of a response with the
// wanted status to read.
func (d *daemon) call(ctx context.Context, hc *http.Client, method, path string, body []byte,
	want int, read func(io.Reader) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.url+path, rd)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	return read(resp.Body)
}

// followEvents reads an SSE job stream to its terminal "job" frame,
// handing phase and spec frames to onEvent when it is set.
func followEvents(r io.Reader, onEvent func(st.JobEvent)) (*st.JobStatus, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	typ := ""
	for sc.Scan() {
		line := sc.Bytes()
		if rest, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
			typ = string(rest)
			continue
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok || (typ != "job" && (onEvent == nil || (typ != "phase_done" && typ != "spec_done"))) {
			continue
		}
		var ev st.JobEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			return nil, fmt.Errorf("%s frame: %w", typ, err)
		}
		if typ == "job" {
			if ev.Job == nil {
				return nil, fmt.Errorf("terminal frame carries no job status")
			}
			return ev.Job, nil
		}
		onEvent(ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("stream ended before the terminal frame")
}
