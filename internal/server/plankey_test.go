package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"dpm/internal/schedule"
	"dpm/internal/trace"
)

// keyBaseRequest is a weighted scenario I request with every planning
// field set, so each one has a value to flip.
func keyBaseRequest() PlanRequest {
	s := trace.ScenarioI()
	w := make([]float64, s.Usage.Len())
	for i := range w {
		w[i] = 1 + float64(i%3)
	}
	s.Weight = &schedule.Grid{Step: s.Usage.Step, Values: w}
	return PlanRequest{Scenario: s, Strategy: "proportional", MaxIterations: 16, Margin: 0.05}
}

// cloneRequest deep-copies the grids so a mutation cannot leak into the
// base request.
func cloneRequest(req PlanRequest) PlanRequest {
	req.Scenario.Charging = req.Scenario.Charging.Clone()
	req.Scenario.Usage = req.Scenario.Usage.Clone()
	if req.Scenario.Weight != nil {
		req.Scenario.Weight = req.Scenario.Weight.Clone()
	}
	return req
}

// validatedKey normalizes req as the plan path does and returns its
// JSON-response key.
func validatedKey(t *testing.T, req PlanRequest) string {
	t.Helper()
	if err := validatePlanRequest(&req); err != nil {
		t.Fatalf("validating %+v: %v", req, err)
	}
	return planKey(jsonPlan.tag, &req)
}

// TestPlanKeyInputs checks that the plan cache key flips with every
// planning input, down to one ulp of one grid value, and with nothing
// else: not the scenario name, not the JSON field order or whitespace,
// not the request's wire form. JSON and binary responses are keyed
// apart.
func TestPlanKeyInputs(t *testing.T) {
	base := keyBaseRequest()
	baseKey := validatedKey(t, base)

	type mutation struct {
		name string
		edit func(*PlanRequest)
	}
	var muts []mutation
	grids := []struct {
		name string
		get  func(*PlanRequest) *schedule.Grid
	}{
		{"charging", func(r *PlanRequest) *schedule.Grid { return r.Scenario.Charging }},
		{"usage", func(r *PlanRequest) *schedule.Grid { return r.Scenario.Usage }},
		{"weight", func(r *PlanRequest) *schedule.Grid { return r.Scenario.Weight }},
	}
	for _, g := range grids {
		for i := 0; i < base.Scenario.Usage.Len(); i++ {
			g, i := g, i
			muts = append(muts, mutation{fmt.Sprintf("%s[%d]", g.name, i), func(r *PlanRequest) {
				v := &g.get(r).Values[i]
				*v = math.Nextafter(*v, math.Inf(1))
			}})
		}
	}
	muts = append(muts,
		mutation{"step", func(r *PlanRequest) {
			for _, g := range grids {
				g.get(r).Step *= 2
			}
		}},
		mutation{"weight presence", func(r *PlanRequest) { r.Scenario.Weight = nil }},
		mutation{"capacityMax", func(r *PlanRequest) { r.Scenario.CapacityMax++ }},
		mutation{"capacityMin", func(r *PlanRequest) { r.Scenario.CapacityMin /= 2 }},
		mutation{"initialCharge", func(r *PlanRequest) { r.Scenario.InitialCharge++ }},
		mutation{"strategy", func(r *PlanRequest) { r.Strategy = "even" }},
		mutation{"planner", func(r *PlanRequest) { r.Planner = "yds" }},
		mutation{"maxIterations", func(r *PlanRequest) { r.MaxIterations = 17 }},
		mutation{"margin", func(r *PlanRequest) { r.Margin = 0.1 }},
	)
	seen := map[string]string{baseKey: "base"}
	for _, m := range muts {
		req := cloneRequest(base)
		m.edit(&req)
		key := validatedKey(t, req)
		if prev, dup := seen[key]; dup {
			t.Errorf("%s: key equals the key of %s", m.name, prev)
		}
		seen[key] = m.name
	}

	// Inputs that must not move the key.
	same := func(name string, req PlanRequest) {
		t.Helper()
		if key := validatedKey(t, req); key != baseKey {
			t.Errorf("%s flipped the key", name)
		}
	}
	renamed := cloneRequest(base)
	renamed.Scenario.Name = "node-7-forecast"
	same("the scenario name", renamed)
	defaults := cloneRequest(base)
	defaults.Strategy, defaults.MaxIterations = "", 0
	same("spelled-out defaults", defaults)
	negZero := cloneRequest(base)
	negZero.Margin = 0
	zeroKey := validatedKey(t, negZero)
	negZero.Margin = math.Copysign(0, -1)
	if validatedKey(t, negZero) != zeroKey {
		t.Error("margin -0 and 0 keyed apart")
	}

	// The same request as JSON bodies in another field order (a
	// generic re-encode sorts the keys of every object) and with other
	// whitespace decodes to one key.
	canonical := mustJSON(t, base)
	var generic any
	if err := json.Unmarshal(canonical, &generic); err != nil {
		t.Fatal(err)
	}
	sorted, err := json.Marshal(generic)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(sorted, bytes.TrimSpace(canonical)) {
		t.Fatal("re-encode kept the field order")
	}
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, sorted, "\n", " \t"); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"canonical JSON":        canonical,
		"key order":             sorted,
		"key order, whitespace": spaced.Bytes(),
	} {
		req, err := decodePlanJSON(httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		same(name, req)
	}
	bin, err := DecodePlanRequestBinary(AppendPlanRequestBinary(nil, &base))
	if err != nil {
		t.Fatal(err)
	}
	same("a binary request body", *bin)

	norm := cloneRequest(base)
	if err := validatePlanRequest(&norm); err != nil {
		t.Fatal(err)
	}
	if planKey(jsonPlan.tag, &norm) == planKey(binaryPlan.tag, &norm) {
		t.Error("JSON and binary responses share a key")
	}
}
