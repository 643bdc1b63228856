package chaostest

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// okHandler answers 200 with a small JSON body.
func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ok":true}`) //nolint:errcheck
	})
}

func TestTransportNoFaultsPassesThrough(t *testing.T) {
	srv := httptest.NewServer(okHandler())
	defer srv.Close()
	c := &http.Client{Transport: NewTransport(nil, FaultConfig{Seed: 1})}
	resp, err := c.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || string(body) != `{"ok":true}` {
		t.Fatalf("body %q err %v", body, err)
	}
}

// TestTransportInjectsEachFaultKind drives enough requests through an
// all-faults transport that every kind fires, and checks each
// surfaces in the documented shape.
func TestTransportInjectsEachFaultKind(t *testing.T) {
	srv := httptest.NewServer(okHandler())
	defer srv.Close()
	tr := NewTransport(nil, FaultConfig{
		Seed:         7,
		LatencyProb:  0.2,
		LatencyMin:   time.Microsecond,
		LatencyMax:   time.Millisecond,
		ResetProb:    0.2,
		TruncateProb: 0.2,
		Err500Prob:   0.1,
		Err503Prob:   0.1,
	})
	c := &http.Client{Transport: tr}
	var resets, truncations, err500s, err503s, oks int
	for i := 0; i < 300; i++ {
		resp, err := c.Get(srv.URL)
		if err != nil {
			var re *ResetError
			if !errors.As(err, &re) {
				t.Fatalf("unexpected transport error: %v", err)
			}
			resets++
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			if rerr != nil {
				if !errors.Is(rerr, io.ErrUnexpectedEOF) {
					t.Fatalf("truncated read error %v, want unexpected EOF", rerr)
				}
				truncations++
				continue
			}
			if string(body) != `{"ok":true}` {
				t.Fatalf("clean 200 with corrupted body %q", body)
			}
			oks++
		case http.StatusInternalServerError:
			err500s++
			if !strings.Contains(string(body), `"status":500`) {
				t.Fatalf("synthetic 500 body %q", body)
			}
		case http.StatusServiceUnavailable:
			err503s++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("synthetic 503 missing Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if resets == 0 || truncations == 0 || err500s == 0 || err503s == 0 || oks == 0 {
		t.Fatalf("fault mix incomplete: resets=%d truncations=%d 500s=%d 503s=%d oks=%d",
			resets, truncations, err500s, err503s, oks)
	}
	st := tr.Stats()
	if st.Requests != 300 {
		t.Fatalf("stats requests %d, want 300", st.Requests)
	}
	if st.Resets == 0 || st.Truncations == 0 || st.Err500s == 0 || st.Err503s == 0 || st.Latency == 0 {
		t.Fatalf("stats missing injected kinds: %+v", st)
	}
}

// TestTransportDeterministicBySeed replays the same request sequence
// through two equally-seeded transports and expects identical fault
// counts.
func TestTransportDeterministicBySeed(t *testing.T) {
	srv := httptest.NewServer(okHandler())
	defer srv.Close()
	run := func() Stats {
		tr := NewTransport(nil, FaultConfig{
			Seed: 42, ResetProb: 0.25, TruncateProb: 0.25, Err503Prob: 0.25,
		})
		c := &http.Client{Transport: tr}
		for i := 0; i < 100; i++ {
			resp, err := c.Get(srv.URL)
			if err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}
		return tr.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("equal seeds diverged:\n%+v\n%+v", a, b)
	}
}

func TestMiddlewareInjects503AndAbort(t *testing.T) {
	mh := Middleware(okHandler(), FaultConfig{Seed: 3, Err503Prob: 0.3, ResetProb: 0.3})
	srv := httptest.NewServer(mh)
	defer srv.Close()
	var aborts, err503s, oks int
	for i := 0; i < 200; i++ {
		resp, err := http.Get(srv.URL)
		if err != nil {
			aborts++
			continue
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			oks++
		case http.StatusServiceUnavailable:
			err503s++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("injected 503 missing Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if aborts == 0 || err503s == 0 || oks == 0 {
		t.Fatalf("middleware mix incomplete: aborts=%d 503s=%d oks=%d", aborts, err503s, oks)
	}
	st := mh.Stats()
	if st.Resets == 0 || st.Err503s == 0 {
		t.Fatalf("stats missing injections: %+v", st)
	}
}

// TestMiddlewareDisable checks that a disabled middleware passes every
// request through untouched and stops counting.
func TestMiddlewareDisable(t *testing.T) {
	mh := Middleware(okHandler(), FaultConfig{Seed: 5, Err503Prob: 1})
	srv := httptest.NewServer(mh)
	defer srv.Close()
	get := func() int {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("enabled: status %d, want 503", code)
	}
	mh.Disable()
	for i := 0; i < 10; i++ {
		if code := get(); code != http.StatusOK {
			t.Fatalf("disabled: status %d, want 200", code)
		}
	}
	if st := mh.Stats(); st.Requests != 1 || st.Err503s != 1 {
		t.Fatalf("disabled requests were counted: %+v", st)
	}
}

// TestLeakCheckerDetectsLeak pins a goroutine past the snapshot and
// confirms the checker flags it (on a throwaway testing.T), then
// releases it and confirms a clean pass.
func TestLeakCheckerDetectsLeak(t *testing.T) {
	snap := SnapshotGoroutines()
	block := make(chan struct{})
	started := make(chan struct{})
	go func() {
		close(started)
		<-block
	}()
	<-started

	probe := &recordingT{TB: t}
	CheckGoroutines(probe, snap)
	if !probe.failed {
		t.Fatal("checker missed a blocked goroutine")
	}
	close(block)
	CheckGoroutines(t, snap) // must settle clean within the grace window
}

// recordingT captures Errorf instead of failing the real test.
type recordingT struct {
	testing.TB
	failed bool
}

func (r *recordingT) Errorf(string, ...any) { r.failed = true }
func (r *recordingT) Helper()               {}
