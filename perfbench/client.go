package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpm/internal/server"
)

// The driver's HTTP side: one keep-alive connection per load goroutine,
// request counting, and /metrics parsing.

// client is one keep-alive connection to dpmd.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

// reply is one response; body aliases the client's buffer until the
// next call.
type reply struct {
	status int
	cache  string
	body   []byte
}

func (c *client) do(method, path string, body []byte, binary bool) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if binary {
		req.Header.Set("Content-Type", server.BinaryContentType)
		req.Header.Set("Accept", server.BinaryContentType)
	} else if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return reply{}, fmt.Errorf("reading %s: %w", path, err)
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Dpmd-Cache"), body: c.buf.Bytes()}, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// tally counts requests and failed checks across all goroutines.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	errs      []string
}

// fail records one failed request or check; the first few messages are
// kept for the report.
func (t *tally) fail(err error) {
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.errs) < 8 {
		t.errs = append(t.errs, err.Error())
	}
}

// call makes one counted request and checks its status.
func (t *tally) call(c *client, method, path string, body []byte, binary bool) (reply, bool) {
	t.attempted.Add(1)
	r, err := c.do(method, path, body, binary)
	if err != nil {
		t.fail(fmt.Errorf("%s %s: %w", method, path, err))
		return r, false
	}
	if r.status != http.StatusOK {
		t.fail(fmt.Errorf("%s %s: status %d: %s", method, path, r.status, bytes.TrimSpace(r.body)))
		return r, false
	}
	return r, true
}

// metricsOf fetches /metrics and parses every sample line.
func metricsOf(c *client) (map[string]float64, error) {
	r, err := c.do(http.MethodGet, "/metrics", nil, false)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("/metrics status %d", r.status)
	}
	return parseMetrics(r.body), nil
}

// parseMetrics reads an exposition into series → value, and adds each
// labelled family's sum under its bare name.
func parseMetrics(b []byte) map[string]float64 {
	m := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		m[series] = v
		if i := strings.IndexByte(series, '{'); i > 0 {
			m[series[:i]] += v
		}
	}
	return m
}
