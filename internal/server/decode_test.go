package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"dpm/internal/trace"
)

// nestedDecodePlan is the decode the one-pass path replaced: the body
// into PlanRequest, through trace.Scenario's and schedule.Grid's
// UnmarshalJSON.
func nestedDecodePlan(body []byte) (PlanRequest, error) {
	var req PlanRequest
	err := decodeJSON(httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)), &req)
	return req, err
}

func onePassDecodePlan(body []byte) (PlanRequest, error) {
	return decodePlanJSON(httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
}

// checkDecodeParity asserts that the one-pass decode and the nested
// decode give the same request, floats bit for bit, or both reject the
// body with the same status. Bodies with a key given twice are skipped:
// the two decoders deliberately differ there
// (TestDecodePlanJSONDuplicateKeys pins how).
func checkDecodeParity(t *testing.T, body []byte) {
	t.Helper()
	if hasDuplicateKeys(body) {
		return
	}
	want, wantErr := nestedDecodePlan(body)
	got, gotErr := onePassDecodePlan(body)
	switch {
	case wantErr != nil && gotErr != nil:
		ws, _ := errorBody(wantErr)
		gs, _ := errorBody(gotErr)
		if ws != gs {
			t.Fatalf("rejected with status %d (%v), nested decode with %d (%v)\nbody: %.200s", gs, gotErr, ws, wantErr, body)
		}
	case wantErr != nil:
		t.Fatalf("accepted a body the nested decode rejects (%v): %+v\nbody: %.200s", wantErr, got, body)
	case gotErr != nil:
		t.Fatalf("rejected a body the nested decode accepts: %v\nbody: %.200s", gotErr, body)
	default:
		// The binary form carries every field bit for bit, so it tells
		// -0 from 0 where reflect.DeepEqual would not.
		if !reflect.DeepEqual(got, want) ||
			!bytes.Equal(AppendPlanRequestBinary(nil, &got), AppendPlanRequestBinary(nil, &want)) {
			t.Fatalf("decoded requests differ:\n got %+v\nwant %+v\nbody: %.200s", got, want, body)
		}
	}
}

// hasDuplicateKeys reports whether any object in body names a key twice,
// compared as encoding/json matches keys: case-insensitively. Bodies
// that are not valid JSON report false.
func hasDuplicateKeys(body []byte) bool {
	type frame struct {
		object  bool
		wantKey bool
		keys    []string
	}
	var stack []*frame
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		var top *frame
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		if d, ok := tok.(json.Delim); ok && (d == '}' || d == ']') {
			stack = stack[:len(stack)-1]
			if len(stack) > 0 && stack[len(stack)-1].object {
				stack[len(stack)-1].wantKey = true
			}
			continue
		}
		if top != nil && top.object && top.wantKey {
			key := tok.(string)
			for _, k := range top.keys {
				if strings.EqualFold(k, key) {
					return true
				}
			}
			top.keys = append(top.keys, key)
			top.wantKey = false
			continue
		}
		if d, ok := tok.(json.Delim); ok {
			stack = append(stack, &frame{object: d == '{', wantKey: d == '{'})
			continue
		}
		if top != nil && top.object {
			top.wantKey = true
		}
	}
}

// perturbedPlanBodies renders seeded trace.Perturb variants of the
// paper scenarios as /v1/plan bodies, with and without a weight, the
// battery band and the tuning fields.
func perturbedPlanBodies(n int) [][]byte {
	var out [][]byte
	for seed := int64(0); seed < int64(n); seed++ {
		base := trace.Scenarios()[seed%2]
		s := base
		s.Name = fmt.Sprintf("perturbed-%d", seed)
		s.Charging = trace.Perturb(base.Charging, 0.1, seed)
		s.Usage = trace.Perturb(base.Usage, 0.2, seed+1000)
		req := PlanRequest{Scenario: s}
		if seed%3 == 0 {
			s.Weight = trace.Perturb(base.Usage, 0.5, seed+2000)
			req = PlanRequest{Scenario: s, Strategy: "even", Planner: "yds", MaxIterations: int(seed % 20), Margin: 0.01 * float64(seed%7)}
		}
		body, err := canonicalJSON(req)
		if err != nil {
			panic(err)
		}
		out = append(out, body)
	}
	return out
}

// TestDecodePlanJSONParity runs the seed corpus, perturbed scenarios
// and hand-picked edge cases through both decoders. Where the nested
// decode fails a scenario's own checks, the one-pass decode must fail
// with the same message too.
func TestDecodePlanJSONParity(t *testing.T) {
	for _, body := range append(decodePlanSeeds(), perturbedPlanBodies(12)...) {
		checkDecodeParity(t, body)
	}
	grid := `{"step":4.8,"values":[1,2]}`
	sameText := []string{
		`{"scenario":null}`,
		`{"scenario":{}}`,
		`{"scenario":{"charging":` + grid + `}}`,
		`{"scenario":{"charging":{"step":0,"values":[1,2]},"usage":` + grid + `}}`,
		`{"scenario":{"charging":` + grid + `,"usage":{"step":4.8,"values":[]}}}`,
		`{"scenario":{"charging":` + grid + `,"usage":{"step":4.8}}}`,
		`{"scenario":{"charging":` + grid + `,"usage":` + grid + `,"weight":{"step":-1,"values":[1,1]}}}`,
		`{"scenario":{"charging":` + grid + `,"usage":` + grid + `,"weight":{"step":4.8,"values":[1]}}}`,
		`{"scenario":{"name":"x","charging":` + grid + `,"usage":{"step":2.4,"values":[1,2]}}}`,
		`{"scenario":{"charging":` + grid + `,"usage":` + grid + `,"capacityMax":1,"capacityMin":2}}`,
	}
	for _, body := range sameText {
		_, wantErr := nestedDecodePlan([]byte(body))
		_, gotErr := onePassDecodePlan([]byte(body))
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			t.Errorf("%s:\n one-pass: %v\n   nested: %v", body, gotErr, wantErr)
		}
	}
	accepted := []string{
		`{}`,
		`null`,
		`{"scenario":{"charging":` + grid + `,"usage":` + grid + `,"weight":null},"margin":-0}`,
		`{"Scenario":{"CHARGING":` + grid + `,"usage":{"Step":4.8,"VALUES":[1,2]}},"maxiterations":3}`,
		`{"scenario":{"charging":` + grid + `,"usage":` + grid + `,"unknown":[1]},"extra":{"a":1}}`,
		`{"scenario":{"charging":{"step":4.8,"values":[-0,1e-320,1.7976931348623157e308]},"usage":{"step":4.8,"values":[0,0,0]}}}`,
	}
	for _, body := range accepted {
		if _, err := nestedDecodePlan([]byte(body)); err != nil {
			t.Fatalf("%s: nested decode rejects it: %v", body, err)
		}
		checkDecodeParity(t, []byte(body))
	}
}

// TestDecodePlanJSONDuplicateKeys pins the one place the one-pass
// decode differs from the nested one: a "scenario" or grid key given
// twice merges the second object into the first, where the nested
// decode replaced it whole (and so rejected a second object lacking
// the first's fields).
func TestDecodePlanJSONDuplicateKeys(t *testing.T) {
	grid := `{"step":4.8,"values":[1,2]}`
	for _, tc := range []struct {
		name, body string
		check      func(PlanRequest) bool
	}{
		{
			"scenario",
			`{"scenario":{"charging":` + grid + `,"usage":` + grid + `},"scenario":{"name":"second"}}`,
			func(r PlanRequest) bool { return r.Scenario.Name == "second" && r.Scenario.Usage.Len() == 2 },
		},
		{
			"grid",
			`{"scenario":{"charging":` + grid + `,"charging":{"step":2.4},"usage":{"step":2.4,"values":[3,4]}}}`,
			func(r PlanRequest) bool {
				return r.Scenario.Charging.Step == 2.4 && reflect.DeepEqual(r.Scenario.Charging.Values, []float64{1, 2})
			},
		},
	} {
		if !hasDuplicateKeys([]byte(tc.body)) {
			t.Fatalf("%s: duplicate not detected", tc.name)
		}
		if _, err := nestedDecodePlan([]byte(tc.body)); err == nil {
			t.Errorf("%s: nested decode accepted the body", tc.name)
		}
		req, err := onePassDecodePlan([]byte(tc.body))
		if err != nil {
			t.Fatalf("%s: one-pass decode: %v", tc.name, err)
		}
		if !tc.check(req) {
			t.Errorf("%s: not merged: %+v", tc.name, req.Scenario)
		}
	}
}

// TestBatchNullScenarioIsAbsent pins the one-pass batch decode's
// reading of a null item scenario: like an absent one, it reaches the
// item's own validation and fails that item alone. The nested decode
// failed the whole batch; /v1/plan still rejects a null scenario as it
// did.
func TestBatchNullScenarioIsAbsent(t *testing.T) {
	_, base := startServer(t, Config{})
	good := string(mustJSON(t, PlanRequest{Scenario: trace.ScenarioI()}))
	body := `{"requests":[` + strings.TrimSpace(good) + `,{"scenario":null},{}]}`
	status, _, resp := postJSON(t, base, "/v1/batch", []byte(body))
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, resp)
	}
	var br BatchResponse
	if err := decodeInto(resp, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 || br.Results[0].Status != http.StatusOK {
		t.Fatalf("results %+v", br.Results)
	}
	if !bytes.Equal(br.Results[1].Body, br.Results[2].Body) || br.Results[1].Status != http.StatusBadRequest {
		t.Errorf("null item %d %s, absent item %d %s", br.Results[1].Status, br.Results[1].Body,
			br.Results[2].Status, br.Results[2].Body)
	}
	status, _, resp = postJSON(t, base, "/v1/plan", []byte(`{"scenario":null}`))
	if status != http.StatusBadRequest || !bytes.Contains(resp, []byte("needs charging and usage schedules")) {
		t.Errorf("/v1/plan null scenario: %d %s", status, resp)
	}
}

// FuzzDecodePlanJSONParity checks the one-pass decode against the
// nested one on arbitrary bodies, starting from FuzzDecodePlanRequest's
// corpus and seeded trace.Perturb scenarios.
func FuzzDecodePlanJSONParity(f *testing.F) {
	for _, body := range append(decodePlanSeeds(), perturbedPlanBodies(6)...) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeParity(t, body)
	})
}
