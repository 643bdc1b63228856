package server

import (
	"context"
	"net/http"
	"sync"
	"time"

	"dpm/internal/dpm"
	"dpm/internal/fleet"
	"dpm/internal/ingest"
	"dpm/internal/obs"
	"dpm/internal/params"
	"dpm/internal/pipeline"
	"dpm/internal/schedule"
	"dpm/internal/trace"
)

// Ingestion endpoints -----------------------------------------------
//
// When Config.IngestAddr is set, dpmd runs the internal/ingest daemon
// alongside the HTTP API: devices stream StatsD counters/gauges over
// UDP, each flush window closes one observed slot that ticks the
// device's fleet session, and a sustained forecast divergence replans
// the session from the live forecast. The HTTP surface is small:
//
//	GET  /v1/ingest/stats  counters, per-device loop state, last
//	                       flush's span tree
//	POST /v1/ingest/flush  close the current window immediately (the
//	                       deterministic test/ops hook)
//
// Both answer 404 when ingestion is disabled.

// ingestRegistration is what the bridge needs to rebuild a device's
// session around new forecasts: the planning environment from its
// /v1/fleet/register.
type ingestRegistration struct {
	scenario trace.Scenario
	params   params.Config
	policy   dpm.RedistributePolicy
	planner  string
}

// ingestState is the server's half of the telemetry loop. mu is last
// in the lock order (ingest stripe → fleet stripe → mu): it is taken
// with either stripe held or with none, never the other way round.
type ingestState struct {
	daemon *ingest.Daemon

	mu  sync.Mutex
	reg map[string]ingestRegistration
}

func (st *ingestState) lookup(deviceID string) (ingestRegistration, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	r, ok := st.reg[deviceID]
	return r, ok
}

func (st *ingestState) store(deviceID string, r ingestRegistration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.reg[deviceID] = r
}

func (st *ingestState) remove(deviceID string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.reg, deviceID)
}

// fleetBridge implements ingest.Replanner on the fleet manager. The
// daemon calls it with the device's ingest stripe held.
type fleetBridge struct{ s *Server }

// Tick applies one closed flush window to the device's session as a
// completed-slot report — the inner Algorithm 3 step of
// /v1/fleet/tick, without the plan copy or the per-device spans.
func (b *fleetBridge) Tick(_ context.Context, deviceID string, o ingest.SlotObservation) error {
	_, err := b.s.fleet.Observe(deviceID, pipeline.SlotReport{UsedJ: o.UsedJ, SuppliedJ: o.SuppliedJ})
	return err
}

// Replan rebuilds the device's session from the live forecasts: a
// fresh register (no checkpoint, so a live session is displaced with
// a new plan) keeping the device's hardware, policy, planner, battery
// band and weight, with the forecast grids as the planning inputs and
// the session's current charge carried over.
func (b *fleetBridge) Replan(ctx context.Context, deviceID string, usage, charging *schedule.Grid) error {
	reg, ok := b.s.ingest.lookup(deviceID)
	if !ok {
		return fleet.ErrUnknownDevice
	}
	chargeJ, ok := b.s.fleet.Charge(deviceID)
	if !ok {
		return fleet.ErrUnknownDevice
	}
	sc := reg.scenario
	sc.Usage = usage
	sc.Charging = charging
	sc.InitialCharge = min(max(chargeJ, sc.CapacityMin), sc.CapacityMax)
	if _, err := b.s.fleet.Register(ctx, fleet.RegisterSpec{
		DeviceID: deviceID,
		Scenario: sc,
		Params:   reg.params,
		Policy:   reg.policy,
		Planner:  reg.planner,
	}); err != nil {
		return err
	}
	reg.scenario = sc
	b.s.ingest.store(deviceID, reg)
	return nil
}

// newIngest assembles the daemon (not yet listening) for a server
// whose Config enables ingestion.
func newIngest(s *Server) (*ingestState, error) {
	d, err := ingest.New(ingest.Config{
		Addr:                s.cfg.IngestAddr,
		FlushInterval:       s.cfg.IngestFlush,
		Predictor:           s.cfg.IngestPredictor,
		DivergenceThreshold: s.cfg.DivergenceThreshold,
		EventEnergyJ:        s.cfg.IngestEventEnergyJ,
		Replanner:           &fleetBridge{s: s},
		Stages:              s.tel.stages,
		Log:                 s.cfg.AccessLog,
	})
	if err != nil {
		return nil, err
	}
	return &ingestState{daemon: d, reg: make(map[string]ingestRegistration)}, nil
}

// ingestTrack hooks a successful /v1/fleet/register into the
// ingestion loop: remember the planning environment for replans and
// start aggregating the device's telemetry against its planned grids.
// It holds no lock across the two steps: Track takes the device's
// ingest stripe, which sits before ingestState.mu in the lock order.
func (s *Server) ingestTrack(req *FleetRegisterRequest, pcfg params.Config, pol dpm.RedistributePolicy) {
	if s.ingest == nil {
		return
	}
	s.ingest.store(req.DeviceID, ingestRegistration{
		scenario: req.Scenario,
		params:   pcfg,
		policy:   pol,
		planner:  req.Planner,
	})
	// The scenario passed validation, so the grids are well-formed;
	// a Track refusal (device cap) still leaves the fleet session
	// usable and is surfaced on the daemon's cardinality counter.
	s.ingest.daemon.Track(req.DeviceID, req.Scenario.Usage, req.Scenario.Charging) //nolint:errcheck
}

// ingestUntrack drops drained devices from the ingestion loop.
func (s *Server) ingestUntrack(deviceIDs []string) {
	if s.ingest == nil {
		return
	}
	for _, id := range deviceIDs {
		s.ingest.remove(id)
		s.ingest.daemon.Untrack(id)
	}
}

// IngestFlushResult is the POST /v1/ingest/flush body: one flush
// pass's summary.
type IngestFlushResult = ingest.FlushResult

// IngestStatsResponse is the GET /v1/ingest/stats body.
type IngestStatsResponse struct {
	// Enabled reports whether the daemon is running.
	Enabled bool `json:"enabled"`
	// Addr is the bound UDP address ("" before Start or when
	// listener-less).
	Addr string `json:"addr,omitempty"`
	// Predictor names the forecast estimator in use.
	Predictor string `json:"predictor,omitempty"`
	// DivergenceThreshold is the per-slot relative-error trigger.
	DivergenceThreshold float64 `json:"divergenceThreshold,omitempty"`
	// Stats are the daemon's counters.
	Stats ingest.Stats `json:"stats"`
	// Devices is every tracked device's loop state, sorted by id.
	Devices []ingest.DeviceStatus `json:"devices,omitempty"`
	// LastFlushSpans is the most recent flush's span tree — the
	// flush → forecast → replan pipeline stages.
	LastFlushSpans []obs.SpanNode `json:"lastFlushSpans,omitempty"`
}

// handleIngestStats reports the ingestion loop's state.
func (s *Server) handleIngestStats(w http.ResponseWriter, r *http.Request) {
	if s.ingest == nil {
		writeError(w, http.StatusNotFound, "ingestion is disabled; start dpmd with -ingest-addr")
		return
	}
	d := s.ingest.daemon
	_, spans := d.LastFlush()
	resp := &IngestStatsResponse{
		Enabled:             true,
		Addr:                d.Addr(),
		Predictor:           s.cfg.IngestPredictor,
		DivergenceThreshold: s.cfg.DivergenceThreshold,
		Stats:               d.Stats(),
		Devices:             d.DeviceStatuses(),
		LastFlushSpans:      spans,
	}
	body, err := marshalBody(resp)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	writeJSONBytes(w, body)
}

// handleIngestFlush closes the current window of every tracked device
// immediately — the deterministic ops/test hook behind the same logic
// the flush timer drives.
func (s *Server) handleIngestFlush(w http.ResponseWriter, r *http.Request) {
	if s.ingest == nil {
		writeError(w, http.StatusNotFound, "ingestion is disabled; start dpmd with -ingest-addr")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), 30*time.Second)
	defer cancel()
	res, err := s.ingest.daemon.FlushNow(ctx)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	body, err := marshalBody(&res)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	writeJSONBytes(w, body)
}

// Ingest exposes the ingestion daemon (tests, embedders); nil when
// ingestion is disabled.
func (s *Server) Ingest() *ingest.Daemon {
	if s.ingest == nil {
		return nil
	}
	return s.ingest.daemon
}
