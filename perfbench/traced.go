package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"dpm/internal/alloc"
	"dpm/internal/dpm"
	"dpm/internal/fleet"
	"dpm/internal/ingest"
	"dpm/internal/params"
	"dpm/internal/pipeline"
	"dpm/internal/plancache"
	"dpm/internal/scenario"
	"dpm/internal/schedule"
	"dpm/internal/server"
	"dpm/internal/trace"
)

// The traced run. It starts no dpmd: the workload's seeded inputs go
// through each layer's public functions in-process, with a span around
// every call, and through server.Handler() (httptest, no transport) for
// the handler time of the same op. Where the handler's own step is
// unexported, the public equivalent is timed instead:
//
//   - JSON decode: json.Decoder over http.MaxBytesReader (decodeJSON);
//   - validation: scenario.Validate (validatePlanRequest adds only the
//     strategy lookup and default spelling);
//   - JSON encode: json.Marshal (the server's pooled json.Encoder writes
//     the same bytes plus a newline).
//
// The scenario-name splice and the response write run only inside the
// handler; they fall in the handler-minus-ladder remainder together
// with the middleware (admission, request id, metrics).

// ownShare is the part of the traced window spent on the workload's own
// ops; the rest runs the probe that times layers the workload never
// reaches, so every per-layer metric is measured in every run.
const ownShare = 0.75

func newTracedServer() (*server.Server, error) {
	// The same configuration as the live dpmd: defaults plus an ingest
	// daemon (never started, so it binds nothing) fed by Inject.
	return server.New(server.Config{
		Addr:                "127.0.0.1:0",
		IngestAddr:          "127.0.0.1:0",
		IngestEventEnergyJ:  eventEnergyJ,
		IngestPredictor:     ingest.PredictorLastPeriod,
		DivergenceThreshold: 0.25,
	})
}

// runTraced runs one traced workload and returns its per-layer metrics
// and the number of its own ops, each of which passed its checks.
func runTraced(wl string, seed int64, seconds float64, spanDir string, out io.Writer) (map[string]metric, int64, error) {
	srv, err := newTracedServer()
	if err != nil {
		return nil, 0, err
	}
	// A server that never started stops its fleet and ingest loops here.
	defer srv.Shutdown(context.Background()) //nolint:errcheck
	own, probe := newTracer(), newTracer()
	ownDur := time.Duration(seconds * ownShare * float64(time.Second))
	probeDur := time.Duration(seconds*float64(time.Second)) - ownDur
	cpu0 := selfCPU()
	var ownOps int64
	var ladder *planLadder
	var fl *fleetLadder
	switch wl {
	case "plan_zipf", "plan_cold":
		ladder, err = newPlanLadder(wl, seed, srv)
		if err != nil {
			return nil, 0, err
		}
		if err := ladder.run(own, ownDur); err != nil {
			return nil, 0, err
		}
		ownOps = ladder.ops
		if fl, err = newFleetLadder(seed, nil, probe); err != nil {
			return nil, 0, err
		}
		defer fl.close()
		if err := fl.run(probe, probeDur); err != nil {
			return nil, 0, err
		}
	case "fleet_ingest":
		if fl, err = newFleetLadder(seed, srv, own); err != nil {
			return nil, 0, err
		}
		defer fl.close()
		if err := fl.run(own, ownDur); err != nil {
			return nil, 0, err
		}
		ownOps = fl.ops
		pl, err := newPlanLadder("plan_zipf", seed, nil)
		if err != nil {
			return nil, 0, err
		}
		if err := pl.run(probe, probeDur); err != nil {
			return nil, 0, err
		}
	default:
		return nil, 0, fmt.Errorf("unknown workload %q", wl)
	}
	cpu := selfCPU() - cpu0

	// Per-layer counts from the in-process server, as /metrics shows them.
	scrapeStart := time.Now()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	scrapeMS := float64(time.Since(scrapeStart).Nanoseconds()) / 1e6
	if rec.Code != http.StatusOK {
		return nil, 0, fmt.Errorf("/metrics status %d", rec.Code)
	}
	mx := parseMetrics(rec.Body.Bytes())

	// The handler through real net/http over loopback, for the
	// transport share of the end-to-end latency.
	loop, err := loopbackP50(srv, wl, ladder, fl)
	if err != nil {
		return nil, 0, err
	}

	m := layerMetrics(own, probe, mx, fl.daemon.Stats())
	m["obs.scrape_ms"] = metric{scrapeMS, "ms"}
	m["obs.scrape_bytes"] = metric{float64(rec.Body.Len()), "bytes"}
	m["server.transport_us"] = metric{loop - m["server.handler_us"].Value, "us"}
	spanNS := spanCostNS()
	perOp := float64(own.spans) / float64(max(own.ops, 1))
	m["trace.overhead_us"] = metric{spanNS * perOp / 1e3, "us"}
	m["driver.cpu_us_per_op"] = metric{median(own.self[spanGen]), "us"}
	lookups := mx["dpmd_plancache_hits"] + mx["dpmd_plancache_misses"]
	hitRatio, evictions := 0.0, 0.0
	if lookups > 0 {
		hitRatio = mx["dpmd_plancache_hits"] / lookups
		evictions = mx["dpmd_plancache_evictions"] / lookups
	}
	m["plancache.hit_ratio"] = metric{hitRatio, "ratio"}
	m["plancache.evictions_per_op"] = metric{evictions, "ratio"}

	tracedReport(wl, own, probe, m, cpu, ownOps, spanNS, out)
	// One file per workload and phase, overwritten by the next traced
	// run of the workload, so repeated runs do not fill the disk.
	if err := own.write(spanDir, wl+"-own.jsonl"); err != nil {
		return nil, 0, fmt.Errorf("writing spans: %w", err)
	}
	if err := probe.write(spanDir, wl+"-probe.jsonl"); err != nil {
		return nil, 0, fmt.Errorf("writing spans: %w", err)
	}
	return m, ownOps, nil
}

// layerMetrics resolves every per-layer time: from the workload's own
// ops where it has them, from the probe otherwise.
func layerMetrics(own, probe *tracer, mx map[string]float64, ing ingest.Stats) map[string]metric {
	pick := func(name string) float64 {
		if xs := own.self[name]; len(xs) > 0 {
			return median(xs)
		}
		return median(probe.self[name])
	}
	m := map[string]metric{
		"server.handler_us":        {median(own.self[spanHandler]), "us"},
		"server.decode_json_us":    {pick("server.decode_json"), "us"},
		"server.decode_binary_us":  {pick("server.decode_binary"), "us"},
		"server.encode_json_us":    {pick("server.encode_json"), "us"},
		"server.encode_binary_us":  {pick("server.encode_binary"), "us"},
		"scenario.validate_us":     {pick("scenario.validate"), "us"},
		"plancache.key_us":         {pick("plancache.key"), "us"},
		"plancache.lookup_us":      {pick("plancache.lookup"), "us"},
		"pipeline.plan_us":         {pick("pipeline.plan"), "us"},
		"fleet.tick_us":            {pick("fleet.tick"), "us"},
		"fleet.register_us":        {pick("fleet.register"), "us"},
		"dpm.slot_us":              {pick("dpm.slot"), "us"},
		"ingest.parse_line_ns":     {pick("ingest.parse_line") * 1e3, "ns"},
		"ingest.inject_us":         {pick("ingest.inject"), "us"},
		"ingest.flush_ms":          {pick("ingest.flush") / 1e3, "ms"},
		"trace.ladder_us":          {median(own.ladder), "us"},
		"trace.remainder_us":       {median(diffs(own.handler, own.ladder)), "us"},
		"resilience.shed_total":    {mx["dpmd_admission_shed_total"], "count"},
		"resilience.expired_total": {mx["dpmd_admission_expired_total"], "count"},
	}
	if tick := m["fleet.tick_us"].Value; tick > 0 {
		m["fleet.handoff_share"] = metric{1 - m["dpm.slot_us"].Value/tick, "ratio"}
	}
	p99, _ := percentile(sortedCopy(own.self[spanHandler]), 99)
	m["server.handler_p99_us"] = metric{p99, "us"}
	// Ingest counts come from the ladder's daemon, which on fleet_ingest
	// sees exactly what the server's does and elsewhere runs the probe.
	m["ingest.replans_per_flush"] = metric{float64(ing.Replans) / float64(max(ing.Flushes, 1)), "ratio"}
	for _, r := range ingest.DropReasons {
		m["ingest.lines_dropped."+r] = metric{float64(ing.Drops[r]), "count"}
	}
	return m
}

func diffs(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// tracedReport prints the layer ladder: every span's self time, which
// spans dominate, and the ladder against the handler.
func tracedReport(wl string, own, probe *tracer, m map[string]metric, cpu float64, ops int64, spanNS float64, out io.Writer) {
	for _, part := range []struct {
		label string
		t     *tracer
	}{{"own", own}, {"probe", probe}} {
		st := part.t.stats()
		var total float64
		for _, s := range st {
			if s.name != spanHandler {
				total += s.total
			}
		}
		fmt.Fprintf(out, "ladder %s %s: %d ops\n", wl, part.label, part.t.ops)
		for _, s := range st {
			share := 0.0
			if s.name != spanHandler && total > 0 {
				share = s.total / total
			}
			fmt.Fprintln(out, "  "+s.describe(share))
		}
		if part.label == "own" {
			var top []string
			for _, s := range st {
				if s.name != spanHandler && s.name != spanOp && s.name != spanGen && len(top) < 3 {
					top = append(top, fmt.Sprintf("%s %.0f%%", s.name, 100*s.total/total))
				}
			}
			fmt.Fprintf(out, "dominant %s: %v\n", wl, top)
		}
	}
	fmt.Fprintf(out, "handler %s: server.handler median %.3f us; ladder self-time sum median %.3f us; remainder (middleware, splice, write, tracing) median %.3f us; tracing overhead %.3f us/op at %.0f ns/span\n",
		wl, m["server.handler_us"].Value, m["trace.ladder_us"].Value, m["trace.remainder_us"].Value, m["trace.overhead_us"].Value, spanNS)
	fmt.Fprintf(out, "health nproc=%d gomaxprocs=%d traced_cpu_us_per_op=%.4g ops=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu*1e6/float64(max(ops, 1)), ops)
}

// --- plan ladder ---

// planLadder drives plan ops through the layers and, when srv is set,
// through the server handler too.
type planLadder struct {
	wl    string
	srv   *server.Server
	src   *planSource
	cache *plancache.Sharded[[]byte]
	wants map[string]*server.PlanResponse
	ops   int64
}

func newPlanLadder(wl string, seed int64, srv *server.Server) (*planLadder, error) {
	cache, err := plancache.NewSharded(256, 0, func(b []byte) []byte { return append([]byte(nil), b...) })
	if err != nil {
		return nil, err
	}
	in, err := genInputs(wl, seed)
	if err != nil {
		return nil, err
	}
	return &planLadder{wl: wl, srv: srv, src: newPlanSource(wl, seed, 0, in),
		cache: cache, wants: map[string]*server.PlanResponse{}}, nil
}

// run drives ops for d. With a server, each op also goes through its
// handler, and the response is checked against the in-process plan.
func (l *planLadder) run(t *tracer, d time.Duration) error {
	ctx := context.Background()
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		t.begin()
		root := t.start(spanOp, -1)
		g := t.start(spanGen, root)
		sc, body, bin := l.src.next()
		t.end(g)
		want, err := l.ladderOp(ctx, t, root, body, bin)
		t.end(root)
		if err != nil {
			return err
		}
		if l.srv != nil {
			if err := l.handlerOp(t, sc, body, bin, want); err != nil {
				return err
			}
		}
		t.finish()
		l.ops++
	}
	return nil
}

// ladderOp runs one plan request layer by layer, as handlePlan does:
// decode, validate, key, cache lookup, and on a miss plan and encode. It
// returns the in-process plan of the op's input.
func (l *planLadder) ladderOp(ctx context.Context, t *tracer, root int, body []byte, bin bool) (*server.PlanResponse, error) {
	var req server.PlanRequest
	if bin {
		s := t.start("server.decode_binary", root)
		p, err := server.DecodePlanRequestBinary(body)
		t.end(s)
		if err != nil {
			return nil, err
		}
		req = *p
	} else {
		s := t.start("server.decode_json", root)
		dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), 1<<20))
		err := dec.Decode(&req)
		t.end(s)
		if err != nil {
			return nil, err
		}
	}
	s := t.start("scenario.validate", root)
	err := scenario.Validate(req.Scenario)
	t.end(s)
	if err != nil {
		return nil, err
	}
	keyReq := req
	keyReq.Scenario.Name = ""
	keyReq.Strategy = "proportional"
	keyReq.MaxIterations = 16
	prefix := "plan"
	if bin {
		prefix = "planb"
	}
	s = t.start("plancache.key", root)
	key, err := plancache.Key(prefix, keyReq)
	t.end(s)
	if err != nil {
		return nil, err
	}
	var want *server.PlanResponse
	s = t.start("plancache.lookup", root)
	_, _, err = l.cache.GetOrCompute(ctx, key, func() ([]byte, error) {
		p := t.start("pipeline.plan", s)
		res, err := pipeline.PlanWith(ctx, "", pipeline.PlanSpec{
			Scenario: keyReq.Scenario, Strategy: alloc.RemapProportional, MaxIterations: 16,
		})
		t.end(p)
		if err != nil {
			return nil, err
		}
		want = &server.PlanResponse{
			Tau: res.Allocation.Step, Allocation: res.Allocation.Values, Trajectory: res.Trajectory,
			Iterations: len(res.Iterations), Feasible: res.Feasible,
		}
		if bin {
			e := t.start("server.encode_binary", s)
			out := server.AppendPlanResponseBinary(nil, want)
			t.end(e)
			return out, nil
		}
		e := t.start("server.encode_json", s)
		out, err := json.Marshal(want)
		t.end(e)
		return out, err
	})
	t.end(s)
	if err != nil {
		return nil, err
	}
	// Keep the plan of every catalog input for checking later hits; a
	// cold input is never sent twice, so its plan is checked now only.
	if l.wl == "plan_zipf" {
		if want != nil {
			l.wants[key] = want
		}
		want = l.wants[key]
	}
	return want, nil
}

// handlerOp sends the op through Server.Handler and compares the
// response field for field with the in-process plan.
func (l *planLadder) handlerOp(t *tracer, sc trace.Scenario, body []byte, bin bool, want *server.PlanResponse) error {
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
	if bin {
		req.Header.Set("Content-Type", server.BinaryContentType)
		req.Header.Set("Accept", server.BinaryContentType)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h := t.start(spanHandler, -1)
	l.srv.Handler().ServeHTTP(rec, req)
	t.end(h)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("handler: /v1/plan status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if l.wl == "plan_cold" && rec.Header().Get("X-Dpmd-Cache") != "miss" {
		return errors.New("handler: plan_cold request served from cache")
	}
	if want == nil {
		w, err := expectedPlan(sc)
		if err != nil {
			return err
		}
		want = w
	}
	return checkPlanBody(sc, rec.Body.Bytes(), bin, want)
}

// --- fleet and ingest ladder ---

// fleetLadder mirrors fleet_ingest in-process: a fleet.Manager with both
// device sets' sessions, a listener-less ingest daemon bridged to it,
// and a dpm.Manager per ticker for the Algorithm 3 slot work alone. With
// a handler, the in-process server receives the same ops, and its
// responses must equal the ladder's byte for byte.
type fleetLadder struct {
	srv    *server.Server
	seed   int64
	devs   *fleetDevices
	fm     *fleet.Manager
	daemon *ingest.Daemon
	bridge *ladderBridge
	mirror []*dpm.Manager
	stream *fleetStream
	pcfg   params.Config
	window int
	ops    int64
	dgrams [][]byte
}

// newFleetLadder registers every device. The registrations are traced
// apart and only their fleet.register spans join t, so set-up does not
// weigh on the per-op decode, encode and handler times.
func newFleetLadder(seed int64, srv *server.Server, t *tracer) (*fleetLadder, error) {
	devs, err := genDevices(seed)
	if err != nil {
		return nil, err
	}
	fm, err := fleet.New(fleet.Config{})
	if err != nil {
		return nil, err
	}
	pcfg, err := defaultParams()
	if err != nil {
		return nil, err
	}
	fl := &fleetLadder{srv: srv, seed: seed, devs: devs, fm: fm, stream: newFleetStream(seed), pcfg: pcfg}
	fl.bridge = &ladderBridge{fm: fm, pcfg: pcfg, reg: map[string]*bridgeReg{}}
	fl.daemon, err = ingest.New(ingest.Config{
		EventEnergyJ:        eventEnergyJ,
		DivergenceThreshold: 0.25,
		Replanner:           fl.bridge,
	})
	if err != nil {
		fm.Close()
		return nil, err
	}
	ctx := context.Background()
	all := devs.all()
	setup := newTracer()
	for i := range all {
		setup.begin()
		if err := fl.registerOp(ctx, setup, setup.start(spanOp, -1), &all[i]); err != nil {
			fl.close()
			return nil, err
		}
	}
	t.self["fleet.register"] = append(t.self["fleet.register"], setup.self["fleet.register"]...)
	for _, d := range devs.tickers {
		m, err := pipeline.NewManager(ctx, "", d.sc, pcfg, dpm.Proportional)
		if err != nil {
			fl.close()
			return nil, err
		}
		fl.mirror = append(fl.mirror, m)
	}
	return fl, nil
}

func (fl *fleetLadder) close() {
	fl.daemon.Close()
	fl.fm.Close()
}

// ticksPerWindow interleaves one telemetry window after this many fleet
// ops, near the live ratio of ticks to flushes.
const ticksPerWindow = 64

func (fl *fleetLadder) run(t *tracer, d time.Duration) error {
	ctx := context.Background()
	end := time.Now().Add(d)
	for n := 0; time.Now().Before(end); n++ {
		if n%ticksPerWindow == ticksPerWindow-1 {
			if err := fl.windowOp(ctx, t); err != nil {
				return err
			}
			continue
		}
		t.begin()
		root := t.start(spanOp, -1)
		g := t.start(spanGen, root)
		op := fl.stream.next(fl.devs.tickers)
		d := &fl.devs.tickers[op.dev]
		var body []byte
		if !op.register {
			body = appendTickBody(nil, d.id, op.usedJ, op.supplied)
		}
		t.end(g)
		var err error
		if op.register {
			err = fl.registerOp(ctx, t, root, d)
		} else {
			err = fl.tickOp(ctx, t, root, op, body)
		}
		if err != nil {
			return err
		}
		fl.ops++
	}
	return nil
}

// registerOp registers d through the ladder (decode, validate,
// fleet.Register, encode) and, with a handler, through the server; the
// two responses must be identical. It ends the op begun under root.
func (fl *fleetLadder) registerOp(ctx context.Context, t *tracer, root int, d *device) error {
	s := t.start("server.decode_register", root)
	var req server.FleetRegisterRequest
	err := json.Unmarshal(d.register, &req)
	t.end(s)
	if err != nil {
		return err
	}
	s = t.start("scenario.validate", root)
	err = scenario.Validate(req.Scenario)
	t.end(s)
	if err != nil {
		return err
	}
	s = t.start("fleet.register", root)
	res, err := fl.fm.Register(ctx, fleet.RegisterSpec{
		DeviceID: req.DeviceID, Scenario: req.Scenario, Params: fl.pcfg, Policy: dpm.Proportional,
	})
	t.end(s)
	if err != nil {
		return err
	}
	fl.bridge.store(req.DeviceID, req.Scenario, res.ChargeJ)
	// As in the server, a refusal at the daemon's device cap (every
	// ticker) leaves the session usable and counts a cardinality drop.
	fl.daemon.Track(req.DeviceID, req.Scenario.Usage, req.Scenario.Charging) //nolint:errcheck
	s = t.start("server.encode_register", root)
	body, err := json.Marshal(&server.FleetRegisterResponse{
		DeviceID: req.DeviceID, Slot: res.Slot, ChargeJ: res.ChargeJ, Plan: res.Plan,
		Resumed: res.Resumed, Replaced: res.Replaced,
	})
	t.end(s)
	t.end(root)
	if err != nil {
		return err
	}
	if err := fl.viaHandler(t, "/v1/fleet/register", d.register, body); err != nil {
		return err
	}
	t.finish()
	return nil
}

// tickOp ticks one device through the ladder and the handler, and runs
// the same slot on the device's bare dpm.Manager. It ends the op begun
// under root.
func (fl *fleetLadder) tickOp(ctx context.Context, t *tracer, root int, op fleetOp, body []byte) error {
	s := t.start("server.decode_json", root)
	var req server.FleetTickRequest
	err := json.Unmarshal(body, &req)
	t.end(s)
	if err != nil {
		return err
	}
	reports := make([]pipeline.SlotReport, len(req.Slots))
	for i, r := range req.Slots {
		reports[i] = pipeline.SlotReport(r)
	}
	s = t.start("fleet.tick", root)
	res, err := fl.fm.Tick(ctx, fleet.TickSpec{DeviceID: req.DeviceID, Reports: reports})
	t.end(s)
	if err != nil {
		return err
	}
	s = t.start("server.encode_json", root)
	out, err := json.Marshal(&server.FleetTickResponse{
		Plan: res.Plan, ChargeJ: res.ChargeJ, Slot: res.Slot, Replans: res.Replans,
	})
	t.end(s)
	t.end(root)
	if err != nil {
		return err
	}
	s = t.start("dpm.slot", -1)
	m := fl.mirror[op.dev]
	m.BeginSlot()
	m.EndSlot(op.usedJ, op.supplied)
	t.end(s)
	if err := fl.viaHandler(t, "/v1/fleet/tick", body, out); err != nil {
		return err
	}
	t.finish()
	return nil
}

// viaHandler sends body to the in-process server and requires the
// ladder's response bytes back.
func (fl *fleetLadder) viaHandler(t *tracer, path string, body, want []byte) error {
	if fl.srv == nil {
		return nil
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h := t.start(spanHandler, -1)
	fl.srv.Handler().ServeHTTP(rec, req)
	t.end(h)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("handler: %s status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	if got := bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")); !bytes.Equal(got, want) {
		return fmt.Errorf("handler: %s answered %.120s, ladder %.120s", path, got, want)
	}
	return nil
}

// windowOp sends every device's datagram for the next window into the
// daemon and closes the window, timing each inject, the line parser on
// the same lines, and the flush.
func (fl *fleetLadder) windowOp(ctx context.Context, t *tracer) error {
	t.begin()
	root := t.start(spanOp, -1)
	g := t.start(spanGen, root)
	tel := fl.devs.telemetry
	if fl.dgrams == nil {
		fl.dgrams = make([][]byte, len(tel))
	}
	for k, i := range burstOrder(fl.seed, fl.window, len(tel)) {
		fl.dgrams[k] = appendDatagram(fl.dgrams[k][:0], &tel[i], fl.window)
	}
	t.end(g)
	for _, dg := range fl.dgrams {
		s := t.start("ingest.inject", root)
		fl.daemon.Inject(dg)
		t.end(s)
	}
	f := t.start("ingest.flush", root)
	res, err := fl.daemon.FlushNow(ctx)
	t.end(f)
	t.end(root)
	if err != nil {
		return err
	}
	if res.SlotsClosed != len(tel) {
		return fmt.Errorf("flush closed %d slots, want %d", res.SlotsClosed, len(tel))
	}
	// The parser alone, on the same lines: one sample per window.
	lines := 0
	a := time.Now()
	for _, dg := range fl.dgrams {
		for _, line := range bytes.Split(dg, []byte("\n")) {
			if _, reason := ingest.ParseLine(line); reason != "" {
				return fmt.Errorf("datagram line %q dropped: %s", line, reason)
			}
			lines++
		}
	}
	t.record("ingest.parse_line", float64(time.Since(a).Nanoseconds())/float64(lines)/1e3)
	if fl.srv != nil {
		d := fl.srv.Ingest()
		for _, dg := range fl.dgrams {
			d.Inject(dg)
		}
		rec := httptest.NewRecorder()
		fl.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest/flush", nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler: flush status %d", rec.Code)
		}
	}
	t.finish()
	fl.window++
	return nil
}

// defaultParams is the PAMA default hardware's Algorithm 2
// configuration, what a register without a hardware block plans with.
func defaultParams() (params.Config, error) {
	var hw *scenario.Hardware
	return hw.WithDefaults().ParamsConfig()
}

// ladderBridge is the ladder's ingest.Replanner: the same mapping the
// server's bridge makes, ticks into fleet.Tick and divergence replans
// into a fresh fleet.Register around the forecasts with the session's
// last charge carried over.
type ladderBridge struct {
	fm   *fleet.Manager
	pcfg params.Config
	reg  map[string]*bridgeReg
}

type bridgeReg struct {
	sc      trace.Scenario
	chargeJ float64
}

// store runs on the ladder goroutine, never inside a flush, so the map
// needs no lock: flushes call Tick and Replan only from FlushNow, which
// the same goroutine waits on.
func (b *ladderBridge) store(id string, sc trace.Scenario, chargeJ float64) {
	b.reg[id] = &bridgeReg{sc: sc, chargeJ: chargeJ}
}

func (b *ladderBridge) Tick(ctx context.Context, id string, o ingest.SlotObservation) error {
	res, err := b.fm.Tick(ctx, fleet.TickSpec{
		DeviceID: id, Reports: []pipeline.SlotReport{{UsedJ: o.UsedJ, SuppliedJ: o.SuppliedJ}},
	})
	if err != nil {
		return err
	}
	if r, ok := b.reg[id]; ok {
		r.chargeJ = res.ChargeJ
	}
	return nil
}

func (b *ladderBridge) Replan(ctx context.Context, id string, usage, charging *schedule.Grid) error {
	r, ok := b.reg[id]
	if !ok {
		return fleet.ErrUnknownDevice
	}
	sc := r.sc
	sc.Usage, sc.Charging = usage, charging
	sc.InitialCharge = min(max(r.chargeJ, sc.CapacityMin), sc.CapacityMax)
	res, err := b.fm.Register(ctx, fleet.RegisterSpec{
		DeviceID: id, Scenario: sc, Params: b.pcfg, Policy: dpm.Proportional,
	})
	if err != nil {
		return err
	}
	r.sc, r.chargeJ = sc, res.ChargeJ
	return nil
}

// loopbackOps is how many ops the loopback pass sends.
const loopbackOps = 2000

// loopbackP50 serves the in-process handler over real net/http on
// loopback and returns the median latency (µs) of one connection in a
// closed loop over the workload's own ops.
func loopbackP50(srv *server.Server, wl string, pl *planLadder, fl *fleetLadder) (float64, error) {
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := newClient(hs.URL)
	defer c.close()
	lat := make([]float64, 0, loopbackOps)
	for i := 0; i < loopbackOps; i++ {
		var path string
		var body []byte
		var bin bool
		if wl == "fleet_ingest" {
			op := fl.stream.next(fl.devs.tickers)
			for op.register {
				op = fl.stream.next(fl.devs.tickers)
			}
			path, body = "/v1/fleet/tick", appendTickBody(nil, fl.devs.tickers[op.dev].id, op.usedJ, op.supplied)
		} else {
			_, body, bin = pl.src.next()
			path, body = "/v1/plan", append([]byte(nil), body...)
		}
		a := time.Now()
		r, err := c.do(http.MethodPost, path, body, bin)
		lat = append(lat, float64(time.Since(a).Nanoseconds())/1e3)
		if err != nil || r.status != http.StatusOK {
			return 0, fmt.Errorf("loopback %s: status %d, %v", path, r.status, err)
		}
	}
	return median(lat), nil
}
