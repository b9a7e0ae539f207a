package main

// serve-mixed: the server vcseld runs, on a loopback listener, warmed
// with the uniform and diagonal bases, then driven by two closed-loop
// clients with a seeded query mix. vcseld's callers (dse -shards,
// scripts) each wait for their reply, so the loop is closed. One served
// query is one operation.
//
// The sweeps are the row windows one worker of a two-worker
// `dse -shards` run receives from serve.ShardClient: half of dse's
// 6 × 5 gradient grid and half of its 4 × 4 mean-temperature grid. The
// shares of the other kinds and the repeat rate are a planned mix, not
// measured traffic: the repository records none.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"time"

	"vcselnoc/internal/mg"
	"vcselnoc/internal/obs"
	"vcselnoc/internal/serve"
	"vcselnoc/internal/thermal"
)

const (
	serveClients = 2
	// A round is 40 queries: 30 gradient or feasibility (75 %), 4 heater
	// optima (10 %), 4 SNR analyses (10 %), one gradient-sweep window and
	// one mean-temperature-sweep window (5 %). Four of the gradient or
	// feasibility queries repeat an earlier query of the round exactly.
	roundQueries = 40
	roundRepeats = 4
	// shardWorkers is the worker count of the dse -shards run whose
	// chunks the sweeps are.
	shardWorkers = 2
)

var roundKinds = func() []string {
	var k []string
	for i := 0; i < 15; i++ {
		k = append(k, "gradient", "feasibility")
	}
	for i := 0; i < 4; i++ {
		k = append(k, "heater", "snr")
	}
	return append(k, "sweep", "avgtemp")
}()

var endpoints = map[string]string{
	"gradient":    "/v1/gradient",
	"feasibility": "/v1/feasibility",
	"heater":      "/v1/heater/optimal",
	"snr":         "/v1/snr",
	"sweep":       "/v1/sweep/gradient",
	"avgtemp":     "/v1/sweep/avgtemp",
}

// The axes cmd/dse sweeps: its grid mode (lasers × heaters at one chip
// power) and its temps mode (chip × laser power, the chip axis scaled
// from -chip).
var (
	dseLasers     = []float64{1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3}
	dseHeaters    = []float64{0, 0.5e-3, 1e-3, 1.5e-3, 2e-3}
	dseChipScales = []float64{0.5, 0.75, 1, 1.25}
	dseTempLasers = []float64{0, 2e-3, 4e-3, 6e-3}
)

// shardWindow returns the row window ShardClient sends to worker slot of
// shardWorkers for a grid of total rows (one chunk per worker).
func shardWindow(total, slot int) (start, count int) {
	size := (total + shardWorkers - 1) / shardWorkers
	start = slot * size
	return start, min(size, total-start)
}

// query is one request of the mix and, once sent, its outcome.
type query struct {
	kind string
	body any
	// Filled in by the client.
	status  int
	latency time.Duration
	start   time.Time
	traceID string
	resp    []byte
}

func randomScenario(rng *rand.Rand) serve.Scenario {
	act := "uniform"
	if rng.IntN(2) == 1 {
		act = "diagonal"
	}
	pv := 1e-3 + 5e-3*rng.Float64()
	return serve.Scenario{Activity: act, Chip: 12 + 19*rng.Float64(), PVCSEL: pv, PHeater: pv * rng.Float64()}
}

// mixRound builds round r of the seeded mix.
func mixRound(seed int64, r int) []*query {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(r)))
	kinds := append([]string(nil), roundKinds...)
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	qs := make([]*query, len(kinds))
	for i, k := range kinds {
		sc := randomScenario(rng)
		q := &query{kind: k}
		switch k {
		case "gradient", "feasibility":
			q.body = sc
		case "heater":
			sc.PHeater = 0
			q.body = serve.HeaterRequest{Scenario: sc}
		case "snr":
			q.body = serve.SNRRequest{Scenario: sc, Case: 1 + rng.IntN(3), Pattern: []string{"neighbour", "paired"}[rng.IntN(2)]}
		case "sweep":
			lo, n := shardWindow(len(dseLasers), rng.IntN(shardWorkers))
			q.body = serve.GradientSweepRequest{
				Scenario: serve.Scenario{Activity: sc.Activity, Chip: sc.Chip},
				Lasers:   dseLasers, Heaters: dseHeaters, RowStart: lo, RowCount: n,
			}
		case "avgtemp":
			chips := make([]float64, len(dseChipScales))
			for j, f := range dseChipScales {
				chips[j] = f * sc.Chip
			}
			lo, n := shardWindow(len(chips), rng.IntN(shardWorkers))
			q.body = serve.AvgTempSweepRequest{
				Scenario: serve.Scenario{Activity: sc.Activity},
				Chips:    chips, Lasers: dseTempLasers, RowStart: lo, RowCount: n,
			}
		}
		qs[i] = q
	}
	// Repeats: later gradient or feasibility slots copy an earlier one.
	var slots []int
	for i, q := range qs {
		if q.kind == "gradient" || q.kind == "feasibility" {
			slots = append(slots, i)
		}
	}
	for n := 0; n < roundRepeats; n++ {
		j := 1 + rng.IntN(len(slots)-1)
		src := qs[slots[rng.IntN(j)]]
		qs[slots[j]] = &query{kind: src.kind, body: src.body}
	}
	return qs
}

// client sends queries to the server under test.
type client struct {
	base string
	hc   *http.Client
}

func (c *client) do(q *query) error {
	body, err := json.Marshal(q.body)
	if err != nil {
		return err
	}
	q.start = time.Now()
	resp, err := c.hc.Post(c.base+endpoints[q.kind], "application/json", bytes.NewReader(body))
	if err != nil {
		q.latency = time.Since(q.start)
		return err
	}
	q.resp, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	q.latency = time.Since(q.start)
	q.status = resp.StatusCode
	q.traceID = resp.Header.Get(obs.TraceHeader)
	if err != nil {
		return err
	}
	if q.status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", q.kind, q.status, q.resp)
	}
	return nil
}

func (c *client) get(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// gradientAt asks the server for the gradient query answer at sc.
func (c *client) gradientAt(sc serve.Scenario) (serve.QueryResponse, error) {
	q := &query{kind: "gradient", body: sc}
	var out serve.QueryResponse
	if err := c.do(q); err != nil {
		return out, err
	}
	return out, json.Unmarshal(q.resp, &out)
}

// lockedBuffer collects the server's structured log lines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// basisLog is the part of the server's "basis built" log record the
// benchmark reads.
type basisLog struct {
	Msg        string  `json:"msg"`
	DurationMS float64 `json:"duration_ms"`
	MGIters    int     `json:"mg_iters"`
}

// basisBuilds returns the server's "basis built" log records in order.
func (b *lockedBuffer) basisBuilds() []basisLog {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []basisLog
	dec := json.NewDecoder(bytes.NewReader(b.buf.Bytes()))
	for {
		var rec basisLog
		if dec.Decode(&rec) != nil {
			return out
		}
		if rec.Msg == "basis built" {
			out = append(out, rec)
		}
	}
}

// server is one set-up of the workload: a warm server on a loopback
// listener and a client for it.
type server struct {
	srv    *serve.Server
	c      *client
	logs   *lockedBuffer
	cancel context.CancelFunc
	served chan error
	setup  time.Duration
	// setupCPU is the process's CPU time over the set-up.
	setupCPU time.Duration
	phases   mg.PhaseStats
}

// startServer builds the server, listens, and warms the uniform basis
// (as vcseld -warm does) and the diagonal one (with one query).
func startServer(cfg config, spec thermal.Spec) (*server, error) {
	s := &server{logs: &lockedBuffer{}, served: make(chan error, 1)}
	root := cfg.tr.begin("serve.setup", 0)
	defer cfg.tr.end(root)
	start, cpu0 := time.Now(), cpuTime()
	phasesBefore := mg.ReadPhaseStats()
	var err error
	s.srv, err = serve.New(serve.Config{
		Specs:          map[string]thermal.Spec{serve.DefaultSpec: spec},
		DisableTracing: !cfg.tr.on,
		TraceBuffer:    1 << 16,
		Logger:         slog.New(slog.NewJSONHandler(s.logs, nil)),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	var ctx context.Context
	ctx, s.cancel = context.WithCancel(context.Background())
	go func() { s.served <- serve.Run(ctx, ln, s.srv, 10*time.Second) }()
	s.c = &client{
		base: "http://" + ln.Addr().String(),
		hc: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: serveClients + 1},
		},
	}
	if _, err = cfg.tr.timed("serve.warm_uniform", root, func() error { return s.srv.Warm(serve.DefaultSpec) }); err == nil {
		_, err = cfg.tr.timed("serve.warm_diagonal", root, func() error {
			_, err := s.c.gradientAt(serve.Scenario{Activity: "diagonal", Chip: 24, PVCSEL: 3.6e-3, PHeater: 1.08e-3})
			return err
		})
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	s.setup, s.setupCPU = time.Since(start), cpuTime()-cpu0
	s.phases = mg.ReadPhaseStats().Sub(phasesBefore)
	return s, nil
}

// stop shuts the listener down, waits for the server to drain and stops
// its background work.
func (s *server) stop() {
	s.cancel()
	<-s.served
	s.c.hc.CloseIdleConnections()
	s.srv.Close()
}

func runServeMixed(cfg config) (*result, error) {
	spec, err := cfg.spec()
	if err != nil {
		return nil, err
	}
	res := &result{values: map[string]float64{}}
	var setups, setupsCPU []time.Duration
	var s *server
	for i := 0; i < setupRepeats; i++ {
		// Drop the previous server before collecting, so the peak RSS is
		// one server's.
		if s != nil {
			s.stop()
			s = nil
		}
		collect()
		if s, err = startServer(cfg, spec); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s.setup)
		setupsCPU = append(setupsCPU, s.setupCPU)
	}
	defer s.stop()
	res.values["setup_s"] = secondsMedian(setupsCPU)
	res.values["wall.setup_s"] = secondsMedian(setups)
	c, logs, setupPhases := s.c, s.logs, s.phases

	var before serve.Health
	if err := c.get("/healthz", &before); err != nil {
		return nil, err
	}
	// The measured loop: both clients pull from the current round and a
	// new round starts only while the run's time is not up. The process's
	// CPU time is read as each round starts; the difference to the next
	// start is that round's CPU time.
	var (
		mu       sync.Mutex
		rounds   [][]*query
		next     int
		roundCPU []time.Duration
	)
	start := time.Now()
	take := func() *query {
		mu.Lock()
		defer mu.Unlock()
		if len(rounds) == 0 || next == roundQueries {
			if len(rounds) > 0 && time.Since(start) >= cfg.seconds {
				return nil
			}
			roundCPU = append(roundCPU, cpuTime())
			rounds = append(rounds, mixRound(cfg.seed, len(rounds)))
			next = 0
		}
		q := rounds[len(rounds)-1][next]
		next++
		return q
	}
	var wg sync.WaitGroup
	for i := 0; i < serveClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := take(); q != nil; q = take() {
				_ = c.do(q) // failures are counted from q.status below
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	roundCPU = append(roundCPU, cpuTime())
	var after serve.Health
	if err := c.get("/healthz", &after); err != nil {
		return nil, err
	}

	var all []*query
	for _, r := range rounds {
		all = append(all, r...)
	}
	var ops []time.Duration
	for _, q := range all {
		res.attempted++
		if q.status != http.StatusOK {
			res.failed++
			res.check(fmt.Errorf("%s query: HTTP %d: %s", q.kind, q.status, q.resp))
			continue
		}
		ops = append(ops, q.latency)
	}
	perQuery := make([]time.Duration, len(rounds))
	for r := range rounds {
		perQuery[r] = (roundCPU[r+1] - roundCPU[r]) / roundQueries
	}
	opMetrics(res.values, len(ops), perQuery, roundCPU[len(rounds)]-roundCPU[0], ops, wall)
	if res.failed > 0 {
		return res, nil
	}
	if err := checkServe(res, c, all, rand.New(rand.NewPCG(uint64(cfg.seed), 0xc0ffee))); err != nil {
		return res, err
	}
	if cfg.tr.on {
		if err := serveLayers(cfg, res, c, spec, logs, setupPhases, all, before, after); err != nil {
			return res, err
		}
	}
	return res, nil
}

// checkServe checks the served answers: the feasibility flag, the
// superposition of mean temperatures, every heater optimum against served
// gradient queries around it, and every sweep window's rows, rise along
// the power axes and one seeded cell against a served gradient query.
func checkServe(res *result, c *client, all []*query, rng *rand.Rand) error {
	var grads []serve.Scenario
	var gresp []serve.QueryResponse
	for _, q := range all {
		switch q.kind {
		case "gradient", "feasibility":
			var r serve.QueryResponse
			if err := json.Unmarshal(q.resp, &r); err != nil {
				return err
			}
			res.check(checkFeasibleFlag(r.MaxGradient, r.Feasible))
			grads = append(grads, q.body.(serve.Scenario))
			gresp = append(gresp, r)
		case "heater":
			var h serve.HeaterResponse
			if err := json.Unmarshal(q.resp, &h); err != nil {
				return err
			}
			sc := q.body.(serve.HeaterRequest).Scenario
			grad := func(ph float64) (float64, error) {
				s := sc
				s.PHeater = ph
				r, err := c.gradientAt(s)
				return r.MeanGradient, err
			}
			off, err := grad(0)
			if err != nil {
				return err
			}
			hp := heaterPoint{PVCSEL: h.PVCSEL, PHeater: h.PHeater, Ratio: h.Ratio, Gradient: h.MeanGradient, GradientNoHeat: off}
			if hp.Below, hp.Above, err = heaterNeighbours(grad, h.PHeater, h.PVCSEL); err != nil {
				return err
			}
			res.check(checkHeaterMinimum(hp))
		case "sweep":
			var r serve.GradientSweepResponse
			if err := json.Unmarshal(q.resp, &r); err != nil {
				return err
			}
			req := q.body.(serve.GradientSweepRequest)
			if err := checkWindow("gradient sweep", r.RowStart, len(r.Rows), req.RowStart, req.RowCount); err != nil {
				res.check(err)
				continue
			}
			i, j := rng.IntN(len(r.Rows)), rng.IntN(len(req.Heaters))
			g, err := c.gradientAt(serve.Scenario{Activity: req.Activity, Chip: req.Chip, PVCSEL: req.Lasers[req.RowStart+i], PHeater: req.Heaters[j]})
			if err != nil {
				return err
			}
			res.check(checkEqual("gradient sweep mean_gradient", r.Rows[i][j].MeanGradient, g.MeanGradient))
			res.check(checkEqual("gradient sweep max_gradient", r.Rows[i][j].MaxGradient, g.MaxGradient))
		case "avgtemp":
			var r serve.AvgTempSweepResponse
			if err := json.Unmarshal(q.resp, &r); err != nil {
				return err
			}
			req := q.body.(serve.AvgTempSweepRequest)
			if err := checkWindow("mean-temperature sweep", r.RowStart, len(r.Rows), req.RowStart, req.RowCount); err != nil {
				res.check(err)
				continue
			}
			temps := make([][]float64, len(r.Rows))
			for i, row := range r.Rows {
				for _, pt := range row {
					temps[i] = append(temps[i], pt.MeanONITemp)
				}
			}
			res.check(checkRisingGrid("mean-temperature sweep", temps))
			i, j := rng.IntN(len(r.Rows)), rng.IntN(len(req.Lasers))
			g, err := c.gradientAt(serve.Scenario{Activity: req.Activity, Chip: req.Chips[req.RowStart+i], PVCSEL: req.Lasers[j]})
			if err != nil {
				return err
			}
			res.check(checkEqual("mean-temperature sweep mean_oni_temp", temps[i][j], g.MeanONITemp))
		}
	}
	// Superposition: the served mean temperatures are affine in the
	// powers, so their value at a midpoint is the mean of the ends.
	for n := 0; n < 4; n++ {
		i, j := rng.IntN(len(grads)), rng.IntN(len(grads))
		a, b := grads[i], grads[j]
		ra, rb := gresp[i], gresp[j]
		if a.Activity != b.Activity {
			b.Activity = a.Activity
			var err error
			if rb, err = c.gradientAt(b); err != nil {
				return err
			}
		}
		mid := serve.Scenario{
			Activity: a.Activity,
			Chip:     (a.Chip + b.Chip) / 2,
			PVCSEL:   (a.PVCSEL + b.PVCSEL) / 2,
			PHeater:  (a.PHeater + b.PHeater) / 2,
		}
		rm, err := c.gradientAt(mid)
		if err != nil {
			return err
		}
		res.check(checkMidpoint("mean_oni_temp", ra.MeanONITemp, rb.MeanONITemp, rm.MeanONITemp))
		res.check(checkMidpoint("chip_avg", ra.ChipAvg, rb.ChipAvg, rm.ChipAvg))
	}
	return nil
}

// serveLayers fills the per-layer metrics of a traced serve-mixed run.
func serveLayers(cfg config, res *result, c *client, spec thermal.Spec, logs *lockedBuffer,
	setupPhases mg.PhaseStats, all []*query, before, after serve.Health) error {
	v := res.values
	byKind := map[string][]float64{}
	for _, q := range all {
		k := q.kind
		switch k {
		case "feasibility":
			k = "gradient"
		case "avgtemp":
			k = "sweep"
		}
		byKind[k] = append(byKind[k], ms(q.latency))
	}
	for _, k := range []string{"gradient", "heater", "snr", "sweep"} {
		v["serve."+k+"_p50_ms"] = median(byKind[k])
	}

	// Fold the server's spans under the client's span of each query.
	var dbg serve.DebugRequests
	if err := c.get("/debug/requests?limit=0", &dbg); err != nil {
		return err
	}
	traces := make(map[string]obs.TraceRecord, len(dbg.Requests))
	for _, t := range dbg.Requests {
		traces[t.TraceID] = t
	}
	spanMS := map[string]float64{}
	var traced, httpMS float64
	for _, q := range all {
		root := cfg.tr.add("serve.query."+q.kind, 0, q.start, q.latency)
		t, ok := traces[q.traceID]
		if !ok {
			continue
		}
		srvSpan := cfg.tr.add("serve.server", root, t.Start, time.Duration(t.DurationUS)*time.Microsecond)
		for _, s := range t.Spans {
			d := time.Duration(s.DurationUS) * time.Microsecond
			cfg.tr.add("serve."+s.Name, srvSpan, t.Start.Add(time.Duration(s.StartUS)*time.Microsecond), d)
			if q.kind == "gradient" || q.kind == "feasibility" {
				spanMS[s.Name] += ms(d)
			}
		}
		if q.kind == "gradient" || q.kind == "feasibility" {
			traced++
			httpMS += ms(q.latency) - float64(t.DurationUS)/1e3
		}
	}
	if traced > 0 {
		v["serve.admission_ms"] = spanMS["admission"] / traced
		v["serve.coalesce_ms"] = spanMS["coalesce_wait"] / traced
		v["serve.batch_wait_ms"] = spanMS["batch_wait"] / traced
		v["serve.cache_ms"] = spanMS["cache"] / traced
		v["serve.solve_ms"] = spanMS["solve"] / traced
		v["serve.http_ms"] = httpMS / traced
	}
	if len(before.Specs) == 1 && len(after.Specs) == 1 {
		b, a := before.Specs[0], after.Specs[0]
		hits, misses := a.CacheHits-b.CacheHits, a.CacheMisses-b.CacheMisses
		if hits+misses > 0 {
			v["serve.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		v["serve.coalesced_queries"] = float64(a.CoalescedQueries - b.CoalescedQueries)
		if batches := a.Batches - b.Batches; batches > 0 {
			v["serve.batch_size_mean"] = float64(a.BatchedQueries-b.BatchedQueries) / float64(batches)
		}
	}

	builds := logs.basisBuilds()
	if len(builds) != 2 {
		return fmt.Errorf("server logged %d basis builds, want 2", len(builds))
	}
	v["thermal.basis_cold_s"] = builds[0].DurationMS / 1e3
	v["thermal.basis_warm_s"] = builds[1].DurationMS / 1e3
	v["thermal.basis_iters"] = float64(builds[0].MGIters)
	phaseMetrics(v, setupPhases, 1)

	// The server's model is internal to it: model assembly, hierarchy,
	// coarse factor and outer CG are measured on a model of the same spec
	// built apart.
	var model *thermal.Model
	d, err := cfg.tr.timed("thermal.new_model", 0, func() error {
		var err error
		model, err = thermal.NewModel(spec)
		return err
	})
	if err != nil {
		return err
	}
	v["thermal.new_model_s"] = d.Seconds()
	v["thermal.basis_mb"] = 4 * float64(model.NumCells()) * 8 / 1e6
	if err := solverLayers(cfg, v, model); err != nil {
		return err
	}
	outer, err := outerBlockCG(cfg, model, builds[0].MGIters, builds[1].MGIters)
	if err != nil {
		return err
	}
	v["sparse.outer_cg_s"] = outer
	return nil
}
