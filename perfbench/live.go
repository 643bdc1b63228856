package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpm/internal/ingest"
)

// The untraced run: dpmd as a child process on loopback, driven by this
// process in a closed loop over `workers` keep-alive connections.

// workers is the load goroutine and connection count: one per core of
// the 2-core reference host, so the generator never outnumbers the
// cores dpmd runs on.
const workers = 2

// A run starts dpmd and preloads it at least minSetups times, and more
// while the set-ups have taken less than setupBudget in all (at most
// maxSetups); setup_s is the median. Cheap set-ups repeat more, which
// steadies a few-millisecond median.
const (
	minSetups   = 5
	maxSetups   = 51
	setupBudget = time.Second
)

// warmup is the closed-loop time before the window opens, so caches are
// primed and lazy set-up has finished before timing starts.
const warmup = time.Second

// lane is one load goroutine's window samples: latencies in ms, each
// with its completion time in seconds since the window opened.
type lane struct {
	lat, at           []float64 // ops inside the window
	flushLat, flushAt []float64 // telemetry flushes inside the window
	hits              int64
	misses            int64
	samples           []planSample
}

// observe records an op that ran [a, b] if it lies inside the window
// [ws, we].
func observe(lat, at *[]float64, a, b, ws, we time.Time) {
	if !a.Before(ws) && !b.After(we) {
		*lat = append(*lat, float64(b.Sub(a).Nanoseconds())/1e6)
		*at = append(*at, b.Sub(ws).Seconds())
	}
}

// liveResult is everything the untraced run measured.
type liveResult struct {
	setup        []float64
	windowS      float64
	lat, at      []float64
	flushLat     []float64
	flushAt      []float64
	cpuAt        []float64 // dpmd CPU seconds at each slice boundary
	driverCPU    float64
	rssMB        float64
	dpmdProcs    int
	linesSent    int64
	linesApplied int64
	kernelDrops  int64
	metrics      map[string]float64
	scrapeMS     float64
	scrapeBytes  int
	notes        []string
}

// runLive runs one untraced workload end to end.
func runLive(wl string, seed int64, seconds float64, bin string, t *tally) (*liveResult, error) {
	in, err := genInputs(wl, seed)
	if err != nil {
		return nil, err
	}
	res := &liveResult{windowS: seconds}
	var p *proc
	var primeMisses int64
	defer func() {
		if p != nil {
			p.stop() //nolint:errcheck
		}
	}()
	setupStart := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(setupStart) < setupBudget); i++ {
		if p != nil {
			if err := p.stop(); err != nil {
				return nil, err
			}
			p = nil
		}
		start := time.Now()
		if p, err = startDpmd(bin); err != nil {
			return nil, err
		}
		if primeMisses, err = preload(wl, p, in, t); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(start).Seconds())
	}
	pid := p.cmd.Process.Pid
	if v, err := procStatus(pid, "Cpus_allowed_list"); err == nil {
		res.dpmdProcs = cpuListLen(v)
	}

	ws := time.Now().Add(warmup)
	we := ws.Add(time.Duration(seconds * float64(time.Second)))
	lanes := make([]*lane, workers)
	for i := range lanes {
		lanes[i] = &lane{lat: make([]float64, 0, 1<<16)}
	}
	var wg sync.WaitGroup
	var fr *fleetRun
	var kernel0 int64
	switch wl {
	case "plan_zipf", "plan_cold":
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				planLoop(wl, seed, w, p.base, in, lanes[w], ws, we, t)
			}(w)
		}
	case "fleet_ingest":
		if kernel0, err = udpRcvbufErrors(); err != nil {
			return nil, err
		}
		fr = &fleetRun{devs: in.fleet, reports: make([]int, deviceCount)}
		wg.Add(2)
		go func() {
			defer wg.Done()
			fr.tickLoop(seed, p.base, lanes[0], ws, we, t)
		}()
		go func() {
			defer wg.Done()
			fr.windowLoop(seed, p, lanes[1], ws, we, t)
		}()
	}
	var drv0 float64
	var cpuErr error
	for i := 0; i <= slices; i++ {
		time.Sleep(time.Until(ws.Add(we.Sub(ws) * time.Duration(i) / slices)))
		if i == 0 {
			drv0 = selfCPU()
		}
		c, err := procCPU(pid)
		if err != nil {
			cpuErr = err
		}
		res.cpuAt = append(res.cpuAt, c)
	}
	res.driverCPU = selfCPU() - drv0
	wg.Wait()
	if cpuErr != nil {
		return nil, fmt.Errorf("reading dpmd CPU: %w", cpuErr)
	}

	var samples []planSample
	hits, misses := int64(0), primeMisses
	for _, l := range lanes {
		res.lat = append(res.lat, l.lat...)
		res.at = append(res.at, l.at...)
		res.flushLat = append(res.flushLat, l.flushLat...)
		res.flushAt = append(res.flushAt, l.flushAt...)
		samples = append(samples, l.samples...)
		hits += l.hits
		misses += l.misses
	}

	c := newClient(p.base)
	defer c.close()
	if fr != nil {
		kernel1, err := udpRcvbufErrors()
		if err != nil {
			return nil, err
		}
		res.kernelDrops = kernel1 - kernel0
		res.linesSent = 2 * fr.sent
		res.notes = append(res.notes, fmt.Sprintf("telemetry windows every %s; %d overran their period", windowPeriod, fr.late))
		if err := fr.settle(c, res, t); err != nil {
			return nil, err
		}
	}
	if err := scrape(c, res, t); err != nil {
		return nil, err
	}
	if fr == nil {
		t.attempted.Add(int64(len(samples)))
		for _, err := range checkPlanSamples(samples) {
			t.fail(err)
		}
		res.notes = append(res.notes, fmt.Sprintf("plan responses re-planned in-process: %d", len(samples)))
		gotHits, gotMisses := int64(res.metrics["dpmd_plancache_hits"]), int64(res.metrics["dpmd_plancache_misses"])
		t.attempted.Add(1)
		if gotHits != hits || gotMisses != misses {
			t.fail(fmt.Errorf("cache counters hits=%d misses=%d, driver saw hits=%d misses=%d", gotHits, gotMisses, hits, misses))
		}
	} else {
		fr.drain(c, t)
	}
	if v, err := procStatus(pid, "VmHWM"); err == nil {
		kb, _ := strconv.ParseFloat(v, 64)
		res.rssMB = kb / 1024
	}
	err = p.stop()
	p = nil
	if err != nil {
		return nil, err
	}
	return res, nil
}

// primeEntries is how many of the most popular catalog scenarios the
// plan_zipf preload sends in each encoding: together they fill the
// default 256-entry cache.
const primeEntries = 128

// preload brings a fresh dpmd to the workload's starting state, split
// across the load connections: plan_zipf primes the cache with the most
// popular scenarios; fleet_ingest registers every telemetry device, then
// every ticker. It returns the plan cache misses it caused.
func preload(wl string, p *proc, in *inputs, t *tally) (int64, error) {
	var phases [][][]byte
	binary := func(i int) bool { return false }
	switch wl {
	case "plan_zipf":
		var bodies [][]byte
		for i := 0; i < primeEntries; i++ {
			bodies = append(bodies, in.catalog[i].json, in.catalog[i].bin)
		}
		phases = [][][]byte{bodies}
		binary = func(i int) bool { return i%2 == 1 }
	case "fleet_ingest":
		for _, set := range [][]device{in.fleet.telemetry, in.fleet.tickers} {
			var bodies [][]byte
			for i := range set {
				bodies = append(bodies, set[i].register)
			}
			phases = append(phases, bodies)
		}
	}
	path := "/v1/plan"
	if wl == "fleet_ingest" {
		path = "/v1/fleet/register"
	}
	var misses atomic.Int64
	for _, bodies := range phases {
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := newClient(p.base)
				defer c.close()
				for i := w; i < len(bodies); i += workers {
					r, ok := t.call(c, http.MethodPost, path, bodies[i], binary(i))
					if !ok {
						errs[w] = fmt.Errorf("preload request %d failed", i)
						return
					}
					if r.cache == "miss" {
						misses.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return 0, err
		}
	}
	return misses.Load(), nil
}

// planLoop is one plan_zipf or plan_cold load goroutine.
func planLoop(wl string, seed int64, w int, base string, in *inputs, l *lane, ws, we time.Time, t *tally) {
	c := newClient(base)
	defer c.close()
	pick := newSampler(seed, w)
	src := newPlanSource(wl, seed, w, in)
	for time.Now().Before(we) {
		sc, body, bin := src.next()
		a := time.Now()
		r, ok := t.call(c, http.MethodPost, "/v1/plan", body, bin)
		b := time.Now()
		if !ok {
			continue
		}
		switch r.cache {
		case "hit":
			l.hits++
		case "miss":
			l.misses++
		default:
			t.fail(fmt.Errorf("X-Dpmd-Cache %q", r.cache))
			continue
		}
		if wl == "plan_cold" && r.cache != "miss" {
			t.fail(fmt.Errorf("plan_cold request for %s served from cache", sc.Name))
			continue
		}
		observe(&l.lat, &l.at, a, b, ws, we)
		if pick.pick() {
			l.samples = append(l.samples, planSample{sc: sc, binary: bin, body: append([]byte(nil), r.body...)})
		}
	}
}

// scrape times one GET /metrics after the window and keeps the counters.
func scrape(c *client, res *liveResult, t *tally) error {
	t.attempted.Add(1)
	a := time.Now()
	r, err := c.do(http.MethodGet, "/metrics", nil, false)
	res.scrapeMS = float64(time.Since(a).Nanoseconds()) / 1e6
	if err != nil || r.status != http.StatusOK {
		t.fail(fmt.Errorf("scraping /metrics: status %d, %v", r.status, err))
		return errors.New("scrape failed")
	}
	res.scrapeBytes = len(r.body)
	res.metrics = parseMetrics(r.body)
	return nil
}

// slices is how many equal parts the window is cut into; the rate,
// latency and CPU metrics are medians over the parts, so a burst of
// interference from outside the benchmark moves one part, not the run.
const slices = 15

// sliced holds one value per window slice.
type sliced struct {
	tput, p50, p99, cpu []float64
	p99ok               bool // every slice supports its p99
}

// sliceWindow computes each slice's throughput, latency percentiles and
// dpmd CPU per unit of work (ops plus device slots closed by flushes).
func sliceWindow(res *liveResult) sliced {
	d := res.windowS / slices
	at := func(t float64) int { return min(int(t/d), slices-1) }
	lats := make([][]float64, slices)
	for i, t := range res.at {
		lats[at(t)] = append(lats[at(t)], res.lat[i])
	}
	flushes := make([]int, slices)
	for _, t := range res.flushAt {
		flushes[at(t)]++
	}
	out := sliced{p99ok: true}
	for k, l := range lats {
		s := sortedCopy(l)
		p50, _ := percentile(s, 50)
		p99, ok := percentile(s, 99)
		work := float64(len(s) + flushes[k]*deviceCount)
		out.tput = append(out.tput, float64(len(s))/d)
		out.p50 = append(out.p50, p50)
		out.p99 = append(out.p99, p99)
		out.cpu = append(out.cpu, (res.cpuAt[k+1]-res.cpuAt[k])*1e6/max(work, 1))
		out.p99ok = out.p99ok && ok
	}
	return out
}

// liveReport prints the run's health and every end-to-end figure, and
// returns the gated metrics.
func liveReport(res *liveResult, t *tally, out io.Writer) (map[string]metric, error) {
	lat := sortedCopy(res.lat)
	ops := float64(len(lat))
	sl := sliceWindow(res)
	p99 := median(sl.p99)
	if !sl.p99ok {
		v, ok := percentile(lat, 99)
		if !ok {
			return nil, fmt.Errorf("%d latency samples cannot support a p99", len(lat))
		}
		p99 = v
	}
	m := map[string]metric{
		"setup_s":              {median(res.setup), "s"},
		"throughput_ops":       {median(sl.tput), "ops/s"},
		"latency_p50_ms":       {median(sl.p50), "ms"},
		"latency_p99_ms":       {p99, "ms"},
		"server_cpu_us_per_op": {median(sl.cpu), "us"},
		"peak_rss_mb":          {res.rssMB, "MB"},
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "metric %-22s %12.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	att, failed := t.attempted.Load(), t.failed.Load()
	fmt.Fprintf(out, "metric %-22s %12.6g ratio (%d of %d requests and checks)\n", "error_ratio", float64(failed)/float64(max(att, 1)), failed, att)
	fl := sortedCopy(res.flushLat)
	for _, q := range []float64{50, 99} {
		name := fmt.Sprintf("flush_p%.0f_ms", q)
		if v, ok := percentile(fl, q); ok {
			fmt.Fprintf(out, "metric %-22s %12.6g ms (%d flushes)\n", name, v, len(fl))
		} else {
			fmt.Fprintf(out, "metric %-22s %12s ms (%d flushes cannot support it)\n", name, "n/a", len(fl))
		}
	}
	if res.linesSent > 0 {
		fmt.Fprintf(out, "metric %-22s %12.6g ratio (%d of %d lines not applied)\n", "ingest_loss_ratio",
			float64(res.linesSent-res.linesApplied)/float64(res.linesSent), res.linesSent-res.linesApplied, res.linesSent)
	} else {
		fmt.Fprintf(out, "metric %-22s %12s ratio (no telemetry in this workload)\n", "ingest_loss_ratio", "n/a")
	}
	setups := sortedCopy(res.setup)
	fmt.Fprintf(out, "samples latency=%d in %d slices (slice p99 supported: %v) flush=%d window=%.3gs setups=%d (%.4g-%.4g s)\n",
		len(lat), slices, sl.p99ok, len(fl), res.windowS, len(setups), setups[0], setups[len(setups)-1])
	fmt.Fprintf(out, "slices throughput=%.4g p50=%.4g cpu=%.4g\n", sl.tput, sl.p50, sl.cpu)
	mx := res.metrics
	fmt.Fprintf(out, "health nproc=%d driver_gomaxprocs=%d dpmd_gomaxprocs=%d driver.cpu_us_per_op=%.4g dpmd_cpu_s=%.4g shed_total=%.0f expired_total=%.0f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), res.dpmdProcs, res.driverCPU*1e6/ops, res.cpuAt[slices]-res.cpuAt[0],
		mx["dpmd_admission_shed_total"], mx["dpmd_admission_expired_total"])
	fmt.Fprintf(out, "counts plancache.hits=%.0f plancache.misses=%.0f plancache.evictions=%.0f fleet.ticks=%.0f fleet.registrations=%.0f ingest.replans=%.0f obs.scrape_ms=%.4g obs.scrape_bytes=%d\n",
		mx["dpmd_plancache_hits"], mx["dpmd_plancache_misses"], mx["dpmd_plancache_evictions"],
		mx["dpmd_fleet_ticks_total"], mx["dpmd_fleet_registrations_total"], mx["dpmd_ingest_replans_total"],
		res.scrapeMS, res.scrapeBytes)
	for _, r := range ingest.DropReasons {
		if n := mx[fmt.Sprintf("dpmd_ingest_lines_dropped_total{reason=%q}", r)]; n > 0 {
			fmt.Fprintf(out, "counts ingest.lines_dropped.%s=%.0f\n", r, n)
		}
	}
	for _, n := range res.notes {
		fmt.Fprintln(out, "note", n)
	}
	if mx["dpmd_admission_shed_total"]+mx["dpmd_admission_expired_total"] > 0 {
		return m, errors.New("admission shed or expired requests: the numbers reflect overload, not the layers under test")
	}
	return m, nil
}
