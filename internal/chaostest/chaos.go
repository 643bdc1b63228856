// Package chaostest injects deterministic transport and handler
// faults for resilience testing. It is the network-side sibling of
// internal/faults: where faults corrupts the simulated PAMA board
// (dead PIMs, SEUs, lost ring commands), chaostest corrupts the wire
// between a fleet node and dpmd — injected latency, connection
// resets, truncated bodies and spurious 5xx — everything a client's
// retry loop and the server's admission control must absorb. Every
// fault draw comes from one seeded source, so a failing soak run
// replays exactly from its seed.
//
// Two injection points cover both directions:
//
//   - Transport wraps an http.RoundTripper, faulting requests before
//     they are sent (reset), after they complete (reset, truncation)
//     or replacing the response outright (spurious 500/503).
//   - Middleware wraps an http.Handler, delaying requests inside the
//     server and aborting or replacing responses — the faults a
//     proxy or a dying peer would inflict.
//
// The package also carries a stdlib-only goroutine-leak checker
// (SnapshotGoroutines / CheckGoroutines) used by the shutdown and
// breaker tests.
package chaostest

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FaultConfig sets per-request fault probabilities (each in [0, 1])
// and the injected-latency band. Probabilities are evaluated
// independently in a fixed order, so one request can suffer latency
// and a reset.
type FaultConfig struct {
	// Seed drives every draw; runs with equal seeds inject equal
	// fault sequences (per injector — concurrent callers interleave
	// draws, but the multiset of faults stays seed-determined).
	Seed int64
	// LatencyProb injects a uniform delay in [LatencyMin, LatencyMax].
	LatencyProb float64
	// LatencyMin and LatencyMax bound the injected delay.
	LatencyMin, LatencyMax time.Duration
	// ResetProb drops the connection: the transport returns a
	// transport error (half before sending, half after the server has
	// processed the request — both shapes a real reset takes); the
	// middleware aborts the response mid-write.
	ResetProb float64
	// TruncateProb cuts the response body short after the first byte,
	// surfacing as an unexpected-EOF read error on the client.
	TruncateProb float64
	// Err500Prob and Err503Prob replace the response with a synthetic
	// 500 or 503 before the request reaches the server. The 503
	// carries a Retry-After of 1 s, as dpmd's own overload responses
	// do.
	Err500Prob, Err503Prob float64
}

// Stats counts injected faults by kind.
type Stats struct {
	// Requests counts round trips (or handler invocations) seen.
	Requests uint64
	// Latency, Resets, Truncations, Err500s and Err503s count the
	// faults injected.
	Latency, Resets, Truncations, Err500s, Err503s uint64
}

// injector is the shared seeded draw state.
type injector struct {
	cfg FaultConfig

	mu  sync.Mutex
	rng *rand.Rand

	requests, latency, resets, truncations, err500s, err503s atomic.Uint64
}

func newInjector(cfg FaultConfig) *injector {
	return &injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// draw evaluates one probability.
func (in *injector) draw(p float64) bool {
	if p <= 0 {
		return false
	}
	in.mu.Lock()
	v := in.rng.Float64()
	in.mu.Unlock()
	return v < p
}

// delay draws an injected latency in the configured band.
func (in *injector) delay() time.Duration {
	min, max := in.cfg.LatencyMin, in.cfg.LatencyMax
	if max <= min {
		return min
	}
	in.mu.Lock()
	d := min + time.Duration(in.rng.Int63n(int64(max-min)+1))
	in.mu.Unlock()
	return d
}

func (in *injector) stats() Stats {
	return Stats{
		Requests:    in.requests.Load(),
		Latency:     in.latency.Load(),
		Resets:      in.resets.Load(),
		Truncations: in.truncations.Load(),
		Err500s:     in.err500s.Load(),
		Err503s:     in.err503s.Load(),
	}
}

// sleepCtx sleeps d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// ResetError is the transport error an injected connection reset
// surfaces as.
type ResetError struct {
	// Sent reports whether the request had already reached the server
	// when the connection died — the case retries must be idempotent
	// for.
	Sent bool
}

func (e *ResetError) Error() string {
	if e.Sent {
		return "chaos: connection reset after request was sent"
	}
	return "chaos: connection reset before request was sent"
}

// Transport is a fault-injecting http.RoundTripper.
type Transport struct {
	base http.RoundTripper
	in   *injector
}

// NewTransport wraps base (http.DefaultTransport when nil) with the
// configured faults.
func NewTransport(base http.RoundTripper, cfg FaultConfig) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{base: base, in: newInjector(cfg)}
}

// Stats snapshots the injected-fault counters.
func (t *Transport) Stats() Stats { return t.in.stats() }

// RoundTrip applies the fault plan around one request.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	in := t.in
	in.requests.Add(1)
	ctx := req.Context()
	if in.draw(in.cfg.LatencyProb) {
		in.latency.Add(1)
		sleepCtx(ctx, in.delay())
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if in.draw(in.cfg.Err500Prob) {
		in.err500s.Add(1)
		closeBody(req)
		return syntheticResponse(req, http.StatusInternalServerError, ""), nil
	}
	if in.draw(in.cfg.Err503Prob) {
		in.err503s.Add(1)
		closeBody(req)
		return syntheticResponse(req, http.StatusServiceUnavailable, "1"), nil
	}
	if in.draw(in.cfg.ResetProb) {
		in.resets.Add(1)
		// Half the resets kill the connection before the request is
		// sent; the other half let the server do the work first, so
		// retries genuinely re-execute completed requests.
		if in.draw(0.5) {
			closeBody(req)
			return nil, &ResetError{Sent: false}
		}
		resp, err := t.base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body.Close() //nolint:errcheck
		return nil, &ResetError{Sent: true}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if in.draw(in.cfg.TruncateProb) {
		in.truncations.Add(1)
		resp.Body = &truncatedBody{rc: resp.Body}
		// The advertised length no longer matches what the body will
		// deliver — exactly what a mid-stream cut looks like.
	}
	return resp, nil
}

// closeBody releases a request body the transport will never send.
func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close() //nolint:errcheck
	}
}

// syntheticResponse builds a spurious error response that never
// reached the server, in dpmd's structured-error shape.
func syntheticResponse(req *http.Request, status int, retryAfter string) *http.Response {
	body := fmt.Sprintf("{\"error\":\"chaos: injected %d\",\"status\":%d}\n", status, status)
	h := http.Header{"Content-Type": []string{"application/json"}}
	if retryAfter != "" {
		h.Set("Retry-After", retryAfter)
	}
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
		StatusCode:    status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// truncatedBody delivers one byte of the real body, then fails the
// read the way a cut connection does.
type truncatedBody struct {
	rc   io.ReadCloser
	done bool
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.done {
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > 1 {
		p = p[:1]
	}
	n, err := b.rc.Read(p)
	b.done = true
	if err != nil && err != io.EOF {
		return n, err
	}
	return n, io.ErrUnexpectedEOF
}

func (b *truncatedBody) Close() error { return b.rc.Close() }

// Middleware wraps next with server-side fault injection: injected
// latency before the handler runs, spurious 503s (with Retry-After,
// as dpmd's real overload responses carry), and aborted responses —
// the handler's output is cut off mid-connection, which clients see
// as a reset. Stats() on the returned *MiddlewareHandler counts the
// injections.
func Middleware(next http.Handler, cfg FaultConfig) *MiddlewareHandler {
	return &MiddlewareHandler{next: next, in: newInjector(cfg)}
}

// MiddlewareHandler is the fault-injecting http.Handler Middleware
// returns.
type MiddlewareHandler struct {
	next http.Handler
	in   *injector
	off  atomic.Bool
}

// Stats snapshots the injected-fault counters.
func (m *MiddlewareHandler) Stats() Stats { return m.in.stats() }

// Disable stops injection: later requests go straight to the wrapped
// handler and are not counted. A soak calls it once its storm is over,
// so post-storm checks see the server rather than the injector.
func (m *MiddlewareHandler) Disable() { m.off.Store(true) }

// ServeHTTP applies the fault plan around one request.
func (m *MiddlewareHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if m.off.Load() {
		m.next.ServeHTTP(w, r)
		return
	}
	in := m.in
	in.requests.Add(1)
	if in.draw(in.cfg.LatencyProb) {
		in.latency.Add(1)
		sleepCtx(r.Context(), in.delay())
	}
	if in.draw(in.cfg.Err503Prob) {
		in.err503s.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "{\"error\":\"chaos: injected 503\",\"status\":503}\n") //nolint:errcheck
		return
	}
	if in.draw(in.cfg.ResetProb) {
		in.resets.Add(1)
		// http.ErrAbortHandler kills the connection without a
		// response — the server-side face of a reset.
		panic(http.ErrAbortHandler)
	}
	m.next.ServeHTTP(w, r)
}
