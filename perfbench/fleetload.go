package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"dpm/internal/ingest"
	"dpm/internal/server"
)

// fleet_ingest's load: ticks on one device set, telemetry windows on the
// other, and the checks that close the run.

// fleetRun is fleet_ingest's state, shared by its two goroutines and
// the checks after the window.
type fleetRun struct {
	devs *fleetDevices
	// reports counts each ticker session's slot reports since its last
	// register, and reregs the re-registers; the tick goroutine owns both.
	reports []int
	reregs  int
	// flushes counts answered flushes; sent and late are the datagrams
	// sent and the windows that overran. The window goroutine owns them
	// until the run's WaitGroup returns.
	flushes    int
	sent, late int64
	// replanned lists telemetry devices a divergence replan rebuilt.
	replanned map[string]bool
}

// tickLoop is fleet_ingest's first goroutine: one-slot ticks round-robin
// over the tickers, with one op in reRegisterEvery a re-register. Every
// tick's slot must equal the session's reports since its register.
func (fr *fleetRun) tickLoop(seed int64, base string, l *lane, ws, we time.Time, t *tally) {
	c := newClient(base)
	defer c.close()
	fs := newFleetStream(seed)
	devs := fr.devs.tickers
	var body []byte
	for time.Now().Before(we) {
		op := fs.next(devs)
		d := &devs[op.dev]
		a := time.Now()
		var r reply
		var ok bool
		if op.register {
			r, ok = t.call(c, http.MethodPost, "/v1/fleet/register", d.register, false)
		} else {
			body = appendTickBody(body[:0], d.id, op.usedJ, op.supplied)
			r, ok = t.call(c, http.MethodPost, "/v1/fleet/tick", body, false)
		}
		b := time.Now()
		if !ok {
			continue
		}
		if op.register {
			var rr server.FleetRegisterResponse
			if err := json.Unmarshal(r.body, &rr); err != nil || rr.DeviceID != d.id || rr.Slot != 0 ||
				!rr.Replaced || len(rr.Plan) != d.sc.Usage.Len() {
				t.fail(fmt.Errorf("re-register %s: unexpected response %.200s (%v)", d.id, r.body, err))
				continue
			}
			fr.reports[op.dev] = 0
			fr.reregs++
		} else {
			var tr server.FleetTickResponse
			if err := json.Unmarshal(r.body, &tr); err != nil || len(tr.Plan) != d.sc.Usage.Len() {
				t.fail(fmt.Errorf("tick %s: unexpected response %.200s (%v)", d.id, r.body, err))
				continue
			}
			fr.reports[op.dev]++
			if tr.Slot != fr.reports[op.dev] {
				t.fail(fmt.Errorf("tick %s: slot %d after %d reports", d.id, tr.Slot, fr.reports[op.dev]))
				continue
			}
		}
		observe(&l.lat, &l.at, a, b, ws, we)
	}
}

// windowPeriod is the wall-clock length of one telemetry window. A fixed
// cadence keeps the telemetry load the same from run to run; a window
// that overruns its period starts the next one at once.
const windowPeriod = 28 * time.Millisecond

// A window's datagrams go out in sub-bursts of subBurst, subBurstGap
// apart, and the flush follows the last one by subBurstGap. One burst of
// all 1024 lost 15-22% of its datagrams in the kernel. Each lost
// datagram closes a slot with zero usage, so divergence replans rebuilt
// nearly every session during a run, at moments the driver cannot see,
// and the run's work depended on which datagrams were lost. 256
// datagrams fit the default 208 KiB socket buffer.
const (
	subBurst    = 256
	subBurstGap = time.Millisecond
)

// windowLoop is fleet_ingest's second goroutine: slot-aligned telemetry
// windows. Each window sends every device's slot datagram in one burst,
// then closes the window with POST /v1/ingest/flush.
func (fr *fleetRun) windowLoop(seed int64, p *proc, l *lane, ws, we time.Time, t *tally) {
	c := newClient(p.base)
	defer c.close()
	conn, err := net.Dial("udp", p.udp)
	if err != nil {
		t.attempted.Add(1)
		t.fail(fmt.Errorf("dialing ingest: %w", err))
		return
	}
	defer conn.Close()
	devs := fr.devs.telemetry
	var buf []byte
	next := time.Now()
	for w := 0; time.Now().Before(we); w++ {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		} else if w > 0 {
			fr.late++
			next = time.Now()
		}
		next = next.Add(windowPeriod)
		for k, i := range burstOrder(seed, w, len(devs)) {
			if k > 0 && k%subBurst == 0 {
				time.Sleep(subBurstGap)
			}
			buf = appendDatagram(buf[:0], &devs[i], w)
			if _, err := conn.Write(buf); err != nil {
				t.attempted.Add(1)
				t.fail(fmt.Errorf("sending datagram: %w", err))
				return
			}
			fr.sent++
		}
		time.Sleep(subBurstGap)
		if !fr.flushOnce(c, l, ws, we, t) {
			return
		}
	}
}

// flushOnce closes one telemetry window and checks that it closed a
// slot for every telemetry device.
func (fr *fleetRun) flushOnce(c *client, l *lane, ws, we time.Time, t *tally) bool {
	a := time.Now()
	r, ok := t.call(c, http.MethodPost, "/v1/ingest/flush", nil, false)
	b := time.Now()
	if !ok {
		return false
	}
	fr.flushes++
	var res ingest.FlushResult
	if err := json.Unmarshal(r.body, &res); err != nil || res.Devices != deviceCount || res.SlotsClosed != deviceCount {
		t.fail(fmt.Errorf("flush: unexpected result %.200s (%v)", r.body, err))
		return false
	}
	if l != nil {
		observe(&l.flushLat, &l.flushAt, a, b, ws, we)
	}
	return true
}

// settle waits for dpmd to read every datagram the kernel kept, closes
// one last window so every routed sample is applied, then reconciles the
// daemon's counters and notes the devices divergence replans rebuilt.
func (fr *fleetRun) settle(c *client, res *liveResult, t *tally) error {
	last := -1.0
	for i := 0; i < 100; i++ {
		m, err := metricsOf(c)
		if err != nil {
			return err
		}
		n := m["dpmd_ingest_datagrams_total"]
		if n == last {
			break
		}
		last = n
		time.Sleep(20 * time.Millisecond)
	}
	if !fr.flushOnce(c, nil, time.Time{}, time.Time{}, t) {
		return errors.New("final flush failed")
	}
	r, ok := t.call(c, http.MethodGet, "/v1/ingest/stats", nil, false)
	if !ok {
		return errors.New("reading ingest stats failed")
	}
	var st server.IngestStatsResponse
	if err := json.Unmarshal(r.body, &st); err != nil {
		return fmt.Errorf("decoding ingest stats: %w", err)
	}
	res.linesApplied = int64(st.Stats.SamplesApplied)
	// Every ticker registration is refused tracking at the device cap.
	refused := uint64(len(fr.devs.tickers) + fr.reregs)
	for _, err := range reconcileIngest(st.Stats, deviceCount, refused) {
		t.attempted.Add(1)
		t.fail(err)
	}
	fr.replanned = map[string]bool{}
	var replans uint64
	for _, d := range st.Devices {
		if d.Replans > 0 {
			fr.replanned[d.DeviceID] = true
			replans += d.Replans
		}
	}
	res.notes = append(res.notes, fmt.Sprintf("ingest: datagrams received %d, flushes %d, divergence replans %d on %d devices, kernel rcvbuf drops %d",
		st.Stats.Datagrams, st.Stats.Flushes, replans, len(fr.replanned), res.kernelDrops))
	return nil
}

// reconcileIngest checks the daemon's counters against each other: two
// well-formed lines per datagram, one closed slot per tracked device per
// flush, every line either applied or dropped for a known reason, and
// exactly the expected registrations refused at the device cap.
func reconcileIngest(s ingest.Stats, tracked int, refused uint64) []error {
	var errs []error
	if s.Parsed != 2*s.Datagrams {
		errs = append(errs, fmt.Errorf("ingest parsed %d lines from %d datagrams, want 2 each", s.Parsed, s.Datagrams))
	}
	if s.SlotsClosed != s.Flushes*uint64(tracked) {
		errs = append(errs, fmt.Errorf("ingest closed %d slots in %d flushes of %d devices", s.SlotsClosed, s.Flushes, tracked))
	}
	if s.Devices != tracked {
		errs = append(errs, fmt.Errorf("ingest tracks %d devices, want %d", s.Devices, tracked))
	}
	if s.TickErrors != 0 {
		errs = append(errs, fmt.Errorf("ingest reported %d tick errors", s.TickErrors))
	}
	if n := s.Drops[ingest.DropCardinality]; n != refused {
		errs = append(errs, fmt.Errorf("ingest refused %d registrations at the device cap, want %d", n, refused))
	}
	var parseDrops, routeDrops uint64
	for reason, n := range s.Drops {
		switch reason {
		case ingest.DropUntracked, ingest.DropBackpressure:
			routeDrops += n
		case ingest.DropCardinality:
		default:
			parseDrops += n
		}
	}
	if s.Lines != s.Parsed+parseDrops {
		errs = append(errs, fmt.Errorf("ingest lines %d != parsed %d + parse drops %d", s.Lines, s.Parsed, parseDrops))
	}
	if s.Parsed != s.SamplesApplied+routeDrops {
		errs = append(errs, fmt.Errorf("ingest parsed %d != applied %d + routing drops %d", s.Parsed, s.SamplesApplied, routeDrops))
	}
	return errs
}

// drain ends a fleet_ingest run: every registered session must come
// back exactly once, each at the slot its reports account for. A
// telemetry session has closed one slot per flush, unless a divergence
// replan rebuilt it; then the flushes only bound it.
func (fr *fleetRun) drain(c *client, t *tally) {
	r, ok := t.call(c, http.MethodPost, "/v1/fleet/drain", []byte("{}"), false)
	if !ok {
		return
	}
	var dr server.FleetDrainResponse
	if err := json.Unmarshal(r.body, &dr); err != nil {
		t.fail(fmt.Errorf("decoding drain: %w", err))
		return
	}
	t.attempted.Add(1)
	if err := checkDrain(&dr, fr.devs.all()); err != nil {
		t.fail(err)
		return
	}
	for i, d := range dr.Devices {
		t.attempted.Add(1)
		switch {
		case i >= deviceCount:
			if want := fr.reports[i-deviceCount]; d.Slot != want {
				t.fail(fmt.Errorf("drained %s at slot %d, want %d", d.DeviceID, d.Slot, want))
			}
		case fr.replanned[d.DeviceID]:
			if d.Slot > fr.flushes {
				t.fail(fmt.Errorf("drained %s at slot %d after only %d flushes", d.DeviceID, d.Slot, fr.flushes))
			}
		case d.Slot != fr.flushes:
			t.fail(fmt.Errorf("drained %s at slot %d, want one per flush: %d", d.DeviceID, d.Slot, fr.flushes))
		}
	}
}
