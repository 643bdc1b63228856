package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"dpm/internal/alloc"
	"dpm/internal/pipeline"
	"dpm/internal/schedule"
	"dpm/internal/server"
	"dpm/internal/trace"
)

// The correctness gate. Every check returns an error naming what was
// wrong; the driver counts each failed check against error_ratio and a
// run with any failure reports correct=false and exits non-zero.

// expectedPlan runs the planner in-process on the input dpmd received:
// the normalized request (proportional remap, 16 iterations, default
// planner) with the name cleared, as the server's cache key sees it.
func expectedPlan(sc trace.Scenario) (*server.PlanResponse, error) {
	sc.Name = ""
	res, err := pipeline.PlanWith(context.Background(), "", pipeline.PlanSpec{
		Scenario:      sc,
		Strategy:      alloc.RemapProportional,
		MaxIterations: 16,
	})
	if err != nil {
		return nil, fmt.Errorf("in-process plan: %w", err)
	}
	return &server.PlanResponse{
		Tau:        res.Allocation.Step,
		Allocation: res.Allocation.Values,
		Trajectory: res.Trajectory,
		Iterations: len(res.Iterations),
		Feasible:   res.Feasible,
	}, nil
}

// decodePlanBody decodes a /v1/plan response body in either encoding.
func decodePlanBody(body []byte, binary bool) (*server.PlanResponse, error) {
	if binary {
		resp, err := server.DecodePlanResponseBinary(body)
		if err != nil {
			return nil, fmt.Errorf("decoding binary plan response: %w", err)
		}
		return resp, nil
	}
	var resp server.PlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding JSON plan response: %w", err)
	}
	return &resp, nil
}

// comparePlan checks a decoded response field for field against the
// in-process plan; floats must match bit for bit.
func comparePlan(name string, got, want *server.PlanResponse) error {
	switch {
	case got.Scenario != name:
		return fmt.Errorf("scenario name %q, want %q", got.Scenario, name)
	case got.Planner != "":
		return fmt.Errorf("planner %q, want the default", got.Planner)
	case got.Tau != want.Tau:
		return fmt.Errorf("%s: tau %g, want %g", name, got.Tau, want.Tau)
	case got.Iterations != want.Iterations:
		return fmt.Errorf("%s: iterations %d, want %d", name, got.Iterations, want.Iterations)
	case got.Feasible != want.Feasible:
		return fmt.Errorf("%s: feasible %v, want %v", name, got.Feasible, want.Feasible)
	}
	if err := sameFloats("allocation", got.Allocation, want.Allocation); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := sameFloats("trajectory", got.Trajectory, want.Trajectory); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func sameFloats(field string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s has %d values, want %d", field, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s[%d] = %v, want %v", field, i, got[i], want[i])
		}
	}
	return nil
}

// checkPlanBody decodes one plan response and compares it with the
// in-process plan of the scenario that was sent.
func checkPlanBody(sc trace.Scenario, body []byte, binary bool, want *server.PlanResponse) error {
	got, err := decodePlanBody(body, binary)
	if err != nil {
		return err
	}
	return comparePlan(sc.Name, got, want)
}

// planSample is one response kept for the post-window comparison.
type planSample struct {
	sc     trace.Scenario
	binary bool
	body   []byte
}

// planKey identifies a generated planning input: each catalog entry and
// cold template has its own usage grid, and a cold op its own capacity.
type planKey struct {
	usage  *schedule.Grid
	capMax float64
}

// checkPlanSamples re-plans every kept sample in-process and compares.
// Identical inputs are planned once.
func checkPlanSamples(samples []planSample) []error {
	wants := map[planKey]*server.PlanResponse{}
	var errs []error
	for _, s := range samples {
		key := planKey{s.sc.Usage, s.sc.CapacityMax}
		want, ok := wants[key]
		if !ok {
			w, err := expectedPlan(s.sc)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			want, wants[key] = w, w
		}
		if err := checkPlanBody(s.sc, s.body, s.binary, want); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// checkDrain verifies that a drain handed back exactly the registered
// set, each once.
func checkDrain(resp *server.FleetDrainResponse, devs []device) error {
	if resp.Count != len(devs) || len(resp.Devices) != len(devs) {
		return fmt.Errorf("drain returned %d devices (count %d), want %d", len(resp.Devices), resp.Count, len(devs))
	}
	ids := make([]string, len(resp.Devices))
	for i, d := range resp.Devices {
		ids[i] = d.DeviceID
	}
	sort.Strings(ids)
	for i, d := range devs {
		if ids[i] != d.id {
			return fmt.Errorf("drain set differs from the registered set at %q (want %q)", ids[i], d.id)
		}
	}
	return nil
}
