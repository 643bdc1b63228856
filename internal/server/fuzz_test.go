package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dpm/internal/scenario"
	"dpm/internal/trace"
)

// decodePlanSeeds is FuzzDecodePlanRequest's seed corpus: hostile and
// broken /v1/plan bodies. FuzzDecodePlanJSONParity starts from it too.
func decodePlanSeeds() [][]byte {
	valid, err := canonicalJSON(PlanRequest{Scenario: trace.ScenarioI()})
	if err != nil {
		panic(err)
	}
	return [][]byte{
		valid,
		[]byte(``),
		[]byte(`{`),
		[]byte(`null`),
		[]byte(`[]`),
		[]byte(`{"scenario":null}`),
		// Negative and zero τ.
		[]byte(`{"scenario":{"charging":{"step":-4.8,"values":[1]},"usage":{"step":-4.8,"values":[1]}}}`),
		[]byte(`{"scenario":{"charging":{"step":0,"values":[1]},"usage":{"step":0,"values":[1]}}}`),
		// NaN/Inf attempts: literal tokens and overflowing numbers.
		[]byte(`{"scenario":{"charging":{"step":4.8,"values":[NaN]},"usage":{"step":4.8,"values":[1]}}}`),
		[]byte(`{"scenario":{"charging":{"step":4.8,"values":[1e999]},"usage":{"step":4.8,"values":[1]}}}`),
		[]byte(`{"scenario":{"charging":{"step":4.8,"values":["Infinity"]},"usage":{"step":4.8,"values":[1]}}}`),
		[]byte(`{"scenario":{"charging":{"step":1e308,"values":[1e308]},"usage":{"step":1e308,"values":[1e308]},"capacityMax":1e308,"capacityMin":1}}`),
		// Negative power and broken battery bands.
		[]byte(`{"scenario":{"charging":{"step":4.8,"values":[-1,2]},"usage":{"step":4.8,"values":[1,1]}}}`),
		[]byte(`{"scenario":{"charging":{"step":4.8,"values":[1,2]},"usage":{"step":4.8,"values":[1,1]},"capacityMax":1,"capacityMin":2}}`),
		// Geometry mismatch and zero-demand balancing failure.
		[]byte(`{"scenario":{"charging":{"step":4.8,"values":[1,2,3]},"usage":{"step":2.4,"values":[1]}}}`),
		[]byte(`{"scenario":{"charging":{"step":4.8,"values":[1,1]},"usage":{"step":4.8,"values":[0,0]}}}`),
		// Absurd length (over scenario.MaxSlots) and trailing garbage.
		[]byte(`{"scenario":{"charging":{"step":4.8,"values":[` +
			strings.Repeat("0,", scenario.MaxSlots) + `0]},"usage":{"step":4.8,"values":[1]}}}`),
		[]byte(`{"scenario":{"charging":{"step":4.8,"values":[1]},"usage":{"step":4.8,"values":[1]}}}{"again":true}`),
		// Out-of-range tuning knobs.
		[]byte(`{"scenario":{"charging":{"step":4.8,"values":[1]},"usage":{"step":4.8,"values":[1]}},"margin":0.9}`),
		[]byte(`{"scenario":{"charging":{"step":4.8,"values":[1]},"usage":{"step":4.8,"values":[1]}},"maxIterations":-3}`),
		[]byte(`{"scenario":{"charging":{"step":4.8,"values":[1]},"usage":{"step":4.8,"values":[1]}},"strategy":"chaotic"}`),
	}
}

// FuzzDecodePlanRequest feeds arbitrary bodies to the /v1/plan
// handler, mirroring internal/dpm's checkpoint fuzz: whatever a
// hostile or broken node sends — malformed JSON, NaN/Inf-shaped
// schedules, negative τ, absurd lengths, unbalanced scenarios — the
// handler must answer with a structured 4xx, never a 5xx and never a
// panic.
func FuzzDecodePlanRequest(f *testing.F) {
	for _, seed := range decodePlanSeeds() {
		f.Add(seed)
	}
	srv, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	handler := srv.Handler()

	f.Fuzz(func(t *testing.T, data []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(string(data)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)

		res := rec.Result()
		defer res.Body.Close()
		switch {
		case res.StatusCode == http.StatusOK:
			// Accepted input must have produced a valid response.
			var resp PlanResponse
			if err := decodeInto(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with undecodable body: %v", err)
			}
			if len(resp.Allocation) == 0 || resp.Tau <= 0 {
				t.Fatalf("200 with empty plan: %+v", resp)
			}
		case res.StatusCode >= 400 && res.StatusCode < 500:
			assertStructuredError(t, rec.Body.Bytes(), res.StatusCode)
		default:
			t.Fatalf("hostile input produced status %d: %s", res.StatusCode, rec.Body.Bytes())
		}
	})
}
