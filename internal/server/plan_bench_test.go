package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"dpm/internal/schedule"
	"dpm/internal/trace"
)

// Layer benchmarks for the /v1/plan hit path on a 288-slot scenario
// (a 5-minute day, the longest schedule the perfbench workloads send):
//
//	go test ./internal/server -run '^$' -bench 'PlanKey|DecodePlan' -benchmem

// request288 is scenario I stretched to 288 slots over the same
// period, so the battery band keeps the paper's proportions.
func request288() PlanRequest {
	s := trace.ScenarioI()
	stretch := func(g *schedule.Grid) *schedule.Grid {
		const k = 24
		out := &schedule.Grid{Step: g.Step / k, Values: make([]float64, 0, g.Len()*k)}
		for _, v := range g.Values {
			for i := 0; i < k; i++ {
				out.Values = append(out.Values, v)
			}
		}
		return out
	}
	s.Charging, s.Usage = stretch(s.Charging), stretch(s.Usage)
	s.Name = "scenario-I-288"
	return PlanRequest{Scenario: s}
}

// BenchmarkPlanKey prices the plan cache key of a validated request:
// the SHA-256 of its canonical binary form.
func BenchmarkPlanKey(b *testing.B) {
	req := request288()
	if err := validatePlanRequest(&req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = planKey(jsonPlan.tag, &req)
	}
}

// keySink keeps the compiler from dropping the benchmarked call.
var keySink string

// BenchmarkDecodePlanJSON prices the one-pass decode of a JSON
// /v1/plan body.
func BenchmarkDecodePlanJSON(b *testing.B) {
	body, err := canonicalJSON(request288())
	if err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/v1/plan", nil)
	r.Body = io.NopCloser(rd)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		if _, err := decodePlanJSON(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodePlanBinary prices the binary codec's decode of the
// same request.
func BenchmarkDecodePlanBinary(b *testing.B) {
	req := request288()
	body := AppendPlanRequestBinary(nil, &req)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodePlanRequestBinary(body); err != nil {
			b.Fatal(err)
		}
	}
}
