package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpm/internal/ingest"
	"dpm/internal/stripe"
	"dpm/internal/trace"
)

// newBridgeServer returns an unstarted server whose ingest daemon
// tracks n Scenario I devices, each registered through the handler so
// the real fleet bridge carries every flush. One counted event is one
// joule per τ, so a datagram's counter is the slot's usage in watts.
func newBridgeServer(tb testing.TB, n int) *Server {
	tb.Helper()
	s, err := New(Config{
		Addr:                "127.0.0.1:0",
		IngestAddr:          "127.0.0.1:0",
		IngestEventEnergyJ:  trace.Tau,
		IngestPredictor:     ingest.PredictorLastPeriod,
		DivergenceThreshold: 0.25,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Shutdown(context.Background()) }) //nolint:errcheck
	for i := 0; i < n; i++ {
		registerVia(tb, s.Handler(), fmt.Sprintf("flush-%04d", i))
	}
	return s
}

// registerVia registers a Scenario I session for id through h.
func registerVia(tb testing.TB, h http.Handler, id string) {
	tb.Helper()
	body, err := canonicalJSON(FleetRegisterRequest{DeviceID: id, Scenario: trace.ScenarioI()})
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleet/register", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("register %s: %d %s", id, rec.Code, rec.Body.Bytes())
	}
}

// scenarioIDatagram is device id's telemetry for one Scenario I slot:
// exactly the planned usage and charging, so the window never diverges.
func scenarioIDatagram(id string, slot int) []byte {
	sc := trace.ScenarioI()
	return []byte(fmt.Sprintf("%s.events:%g|c\n%s.charge:%g|g",
		id, sc.Usage.Values[slot], id, sc.Charging.Values[slot]))
}

// BenchmarkFlushFleetBridge prices one mid-period flush of 1024
// tracked devices through the server's fleet bridge: per device, the
// window close, one Algorithm 3 slot on its fleet session and the
// divergence score. Each window's telemetry is injected off the clock,
// and the flush that wraps the period (forecasts, possible replans)
// runs off the clock too.
func BenchmarkFlushFleetBridge(b *testing.B) {
	const devices = 1024
	s := newBridgeServer(b, devices)
	d := s.Ingest()
	slots := trace.ScenarioI().Usage.Len()
	windows := make([][][]byte, slots)
	for slot := range windows {
		for i := 0; i < devices; i++ {
			windows[slot] = append(windows[slot], scenarioIDatagram(fmt.Sprintf("flush-%04d", i), slot))
		}
	}
	ctx := context.Background()
	flushed := 0
	flush := func() {
		for _, dg := range windows[flushed%slots] {
			d.Inject(dg)
		}
		if _, err := d.FlushNow(ctx); err != nil {
			b.Fatal(err)
		}
		flushed++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if flushed%slots == slots-1 {
			flush()
		}
		for _, dg := range windows[flushed%slots] {
			d.Inject(dg)
		}
		b.StartTimer()
		if _, err := d.FlushNow(ctx); err != nil {
			b.Fatal(err)
		}
		flushed++
	}
	b.StopTimer()
	if st := d.Stats(); st.TickErrors != 0 || st.SlotsClosed != uint64(flushed*devices) {
		b.Fatalf("flushes left %d tick errors and %d slots closed, want 0 and %d",
			st.TickErrors, st.SlotsClosed, flushed*devices)
	}
}

// TestFlushAllocsIndependentOfFleetSize pins the flush's allocation
// profile: away from a period wrap, closing a window through the
// fleet bridge allocates nothing per device, so a flush over 1024
// devices allocates exactly what one over 64 does.
func TestFlushAllocsIndependentOfFleetSize(t *testing.T) {
	slots := trace.ScenarioI().Usage.Len()
	allocs := func(devices int) float64 {
		d := newBridgeServer(t, devices).Ingest()
		// AllocsPerRun flushes runs+1 times; stay short of the wrap.
		n := testing.AllocsPerRun(slots-3, func() {
			if _, err := d.FlushNow(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
		if st := d.Stats(); st.Replans != 0 || st.TickErrors != 0 {
			t.Fatalf("%d devices: %d replans, %d tick errors mid-period", devices, st.Replans, st.TickErrors)
		}
		return n
	}
	small, large := allocs(64), allocs(1024)
	if small != large {
		t.Fatalf("mid-period flush allocates %v at 64 devices and %v at 1024; want the same count", small, large)
	}
}

// TestFleetIngestConcurrency drives every path into the two striped
// tables at once on a fully wired server — HTTP ticks, register churn,
// datagram injection and flushes — then drains. It must finish under a
// deadline: a lock-order inversion between the ingest stripes, the
// fleet stripes and the bridge's registration map shows up as a hang.
// Afterwards the ingest counters reconcile and every session drains
// exactly once; a ticked device's checkpoint holds exactly the ticks
// that answered 200.
func TestFleetIngestConcurrency(t *testing.T) {
	s, err := New(Config{
		Addr:               "127.0.0.1:0",
		IngestAddr:         "127.0.0.1:0",
		IngestEventEnergyJ: trace.Tau,
		FleetPartitions:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()
	// A deadlocked server cannot shut down; it is left behind so the
	// failure reports instead of hanging.
	deadlocked := false
	defer func() {
		if !deadlocked {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Shutdown(ctx) //nolint:errcheck
		}
	}()
	const (
		tickers, telemetry, churners = 6, 12, 3
		ticksEach, churnRounds       = 40, 10
		// The injector and the flusher each run at least minWindows
		// windows and keep going while HTTP traffic is in flight; the
		// churn keeps going while ticks are.
		minWindows = 30
	)
	// Every device id hashes to stripe 0 under any stripe count up to
	// 256, so all the traffic contends on one ingest stripe and one
	// fleet stripe: an inversion needs two paths on the same stripes.
	ids := func(prefix string, n int) []string {
		var out []string
		for i := 0; len(out) < n; i++ {
			if id := fmt.Sprintf("%s-%d", prefix, i); stripe.Hash(id)&0xff == 0 {
				out = append(out, id)
			}
		}
		return out
	}
	tickIDs, telIDs, churnIDs := ids("tick", tickers), ids("tel", telemetry), ids("churn", churners)
	for _, set := range [][]string{tickIDs, telIDs, churnIDs} {
		for _, id := range set {
			if status, _, body := postJSON(t, base, "/v1/fleet/register", fleetRegisterBody(t, id)); status != http.StatusOK {
				t.Fatalf("register %s: %d %s", id, status, body)
			}
		}
	}
	// Ticked devices stay out of the telemetry loop, so their slot is
	// exactly their successful HTTP ticks.
	d := s.Ingest()
	for _, id := range tickIDs {
		d.Untrack(id)
	}
	tracked := telemetry + churners

	applied := make([]atomic.Int64, tickers)
	errs := make(chan error, 64)
	var (
		wg       sync.WaitGroup
		inFlight atomic.Int32 // HTTP actors still running
		ticking  atomic.Int32 // tick actors still running
		windows  int          // injected windows, read after wg.Wait
	)
	run := func(fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(); err != nil {
				errs <- err
			}
		}()
	}
	runHTTP := func(fn func() error) {
		inFlight.Add(1)
		run(func() error {
			defer inFlight.Add(-1)
			return fn()
		})
	}
	post := func(path string, body []byte) error {
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST %s: status %d", path, resp.StatusCode)
		}
		return nil
	}
	tickBodies := make([][]byte, tickers)
	for i, id := range tickIDs {
		tickBodies[i] = fleetTickBody(t, FleetTickRequest{DeviceID: id, Slots: []SlotReport{{UsedJ: 9, SuppliedJ: 10}}})
	}
	churnBodies := make([][]byte, churners)
	for i, id := range churnIDs {
		churnBodies[i] = fleetRegisterBody(t, id)
	}
	injected := append(append([]string(nil), telIDs...), churnIDs...)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i := range tickIDs {
			body := tickBodies[i]
			applied := &applied[i]
			ticking.Add(1)
			runHTTP(func() error {
				defer ticking.Add(-1)
				for k := 0; k < ticksEach; k++ {
					if err := post("/v1/fleet/tick", body); err != nil {
						return err
					}
					applied.Add(1)
				}
				return nil
			})
		}
		for _, body := range churnBodies {
			body := body
			runHTTP(func() error {
				for k := 0; k < churnRounds || ticking.Load() > 0; k++ {
					if err := post("/v1/fleet/register", body); err != nil {
						return err
					}
				}
				return nil
			})
		}
		// The flusher closes each window once the injector has sent it,
		// while the injector already sends the next: every window
		// carries telemetry, so no period observes zero usage and every
		// divergence replan is feasible.
		sent := make(chan struct{}, 1)
		run(func() error {
			defer close(sent)
			sc := trace.ScenarioI()
			for ; windows < minWindows || inFlight.Load() > 0; windows++ {
				slot := windows % sc.Usage.Len()
				for i, id := range injected {
					// Every third device runs at half its planned usage,
					// so divergence replans race the ticks and the churn.
					usage := sc.Usage.Values[slot]
					if i%3 == 0 {
						usage /= 2
					}
					d.Inject([]byte(fmt.Sprintf("%s.events:%g|c\n%s.charge:%g|g\nghost.events:1|c\nbogus",
						id, usage, id, sc.Charging.Values[slot])))
				}
				sent <- struct{}{}
			}
			return nil
		})
		run(func() error {
			for range sent {
				if _, err := d.FlushNow(context.Background()); err != nil {
					return err
				}
			}
			return nil
		})
		wg.Wait()
	}()
	select {
	case <-finished:
	case <-time.After(time.Minute):
		deadlocked = true
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2) //nolint:errcheck
		t.Fatal("concurrent ticks, registers, injects and flushes did not finish: lock-order deadlock?")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	st := d.Stats()
	if st.TickErrors != 0 {
		t.Errorf("tick errors = %d, want 0", st.TickErrors)
	}
	if st.Drops[ingest.DropBackpressure] != 0 {
		t.Errorf("backpressure drops = %d; the reason is retired and must read 0", st.Drops[ingest.DropBackpressure])
	}
	var parseDrops uint64
	for reason, n := range st.Drops {
		switch reason {
		case ingest.DropUntracked, ingest.DropBackpressure, ingest.DropCardinality:
		default:
			parseDrops += n
		}
	}
	if st.Lines != st.Parsed+parseDrops {
		t.Errorf("lines %d != parsed %d + parse drops %d", st.Lines, st.Parsed, parseDrops)
	}
	if st.Parsed != st.SamplesApplied+st.Drops[ingest.DropUntracked] {
		t.Errorf("parsed %d != applied %d + untracked %d", st.Parsed, st.SamplesApplied, st.Drops[ingest.DropUntracked])
	}
	if want := uint64(windows * tracked); st.SamplesApplied != 2*want || st.Drops[ingest.DropUntracked] != want {
		t.Errorf("applied %d and untracked %d samples, want %d and %d", st.SamplesApplied, st.Drops[ingest.DropUntracked], 2*want, want)
	}
	if st.Flushes != uint64(windows) || st.SlotsClosed != uint64(windows*tracked) {
		t.Errorf("%d flushes closed %d slots, want %d and %d", st.Flushes, st.SlotsClosed, windows, windows*tracked)
	}
	t.Logf("%d windows injected, %d flushes, %d divergence replans", windows, st.Flushes, st.Replans)

	status, _, body := postJSON(t, base, "/v1/fleet/drain", []byte("{}"))
	if status != http.StatusOK {
		t.Fatalf("drain: %d %s", status, body)
	}
	var drain FleetDrainResponse
	if err := decodeInto(body, &drain); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, dev := range drain.Devices {
		seen[dev.DeviceID]++
	}
	for _, set := range [][]string{tickIDs, telIDs, churnIDs} {
		for _, id := range set {
			if seen[id] != 1 {
				t.Errorf("%s drained %d times, want exactly once", id, seen[id])
			}
		}
	}
	if len(drain.Devices) != tickers+telemetry+churners {
		t.Errorf("drained %d sessions, want %d", len(drain.Devices), tickers+telemetry+churners)
	}
	for _, dev := range drain.Devices {
		for i, id := range tickIDs {
			if dev.DeviceID == id && int64(dev.Slot) != applied[i].Load() {
				t.Errorf("%s drained at slot %d, want its %d applied ticks", id, dev.Slot, applied[i].Load())
			}
		}
	}
	if s.Fleet().Live() != 0 || d.Stats().Devices != 0 {
		t.Errorf("after drain: %d live sessions, %d tracked devices", s.Fleet().Live(), d.Stats().Devices)
	}
	if again, err := s.Fleet().Drain(context.Background()); err != nil || len(again) != 0 {
		t.Errorf("second drain returned %d sessions (%v), want none", len(again), err)
	}
}
