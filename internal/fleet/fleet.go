// Package fleet is dpmd's stateful session layer: the paper's §4.3
// runtime manager (Figure 1) is a *long-lived* control loop, and this
// package makes it one server-side. Where POST /v1/replan round-trips
// a full checkpoint per call — every device paying
// serialize/validate/deserialize on every τ tick — a fleet session
// owns a live dpm.Manager: a device registers once (scenario plus
// optional checkpoint) and thereafter streams lightweight telemetry
// ticks, getting delta replans back with no checkpoint on the wire.
//
// Sessions live in a lock-striped table (internal/stripe): power-of-
// two stripes, each a mutex and the sessions whose device id hashes
// to it by FNV-1a. Register, Tick, Observe and Charge run inline in
// the caller's goroutine under the device's stripe lock, so a tick is
// an uncontended lock plus a few hundred nanoseconds of Algorithm 3.
// Drain, the idle sweep and Close lock one stripe at a time. Idle
// sessions are evicted on a TTL with their checkpoint parked for
// handback — a re-register resumes exactly where the evicted session
// stopped — and Drain removes every session at once, returning each
// final checkpoint exactly once. The only goroutine is the idle
// sweeper, and only when IdleTTL is set.
//
// Lock order: ingest stripe → fleet stripe → the server's ingest
// registration mutex. A fleet stripe lock is otherwise a leaf: this
// package takes no other lock while holding one and never calls out
// under it, and nothing may take these locks in the other direction.
// The telemetry flush holds an ingest stripe while it calls Observe,
// Charge and Register.
//
// Semantics are pinned to the stateless path: a session fed N slot
// reports yields byte-identical replan output to N /v1/replan calls
// round-tripping checkpoints (the parity tests in this package and
// internal/server enforce it).
package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpm/internal/dpm"
	"dpm/internal/obs"
	"dpm/internal/params"
	"dpm/internal/pipeline"
	"dpm/internal/scenario"
	"dpm/internal/stripe"
	"dpm/internal/trace"
)

// Sentinel errors callers map onto transport statuses.
var (
	// ErrUnknownDevice means no session (live or parked) exists for
	// the device id — the device must register first. → 404.
	ErrUnknownDevice = errors.New("fleet: unknown device; register first")
	// ErrEvicted means the session was idle-evicted; its checkpoint is
	// parked and a re-register resumes it. → 410.
	ErrEvicted = errors.New("fleet: session evicted for idleness; re-register to resume from the parked checkpoint")
	// ErrFull means the session cap is reached and the device has no
	// existing session to replace. → 503 + Retry-After.
	ErrFull = errors.New("fleet: session capacity reached")
	// ErrClosed means the manager has shut down. → 503.
	ErrClosed = errors.New("fleet: manager closed")
)

// BadCheckpointError wraps a checkpoint the manager refused to
// restore — corrupt or mismatched state is a client error, not a
// server failure.
type BadCheckpointError struct{ Err error }

func (e *BadCheckpointError) Error() string {
	return fmt.Sprintf("fleet: checkpoint rejected: %v", e.Err)
}
func (e *BadCheckpointError) Unwrap() error { return e.Err }

// MaxPartitions caps the stripe count, mirroring plancache.MaxShards.
const MaxPartitions = 256

// DefaultPartitions mirrors plancache.DefaultShards: one stripe per
// runnable goroutine keeps concurrent ticks on different devices off
// each other's locks. Session routing stays stable only within one
// process lifetime, so the count is free to vary with GOMAXPROCS.
func DefaultPartitions() int { return min(stripe.RoundUp(runtime.GOMAXPROCS(0)), 16) }

// Config tunes one fleet manager.
type Config struct {
	// Partitions is the number of session-table stripes, rounded up to
	// a power of two. 0 means DefaultPartitions().
	Partitions int
	// MaxSessions caps live sessions across all partitions; a register
	// beyond the cap (for a device with no existing session) fails
	// with ErrFull. 0 means unlimited.
	MaxSessions int
	// IdleTTL evicts sessions untouched for this long, parking their
	// checkpoints for handback on re-register. 0 disables eviction.
	IdleTTL time.Duration
	// ParkedCapacity bounds parked (evicted) checkpoints across the
	// table, split evenly over the stripes; a stripe's oldest parked
	// entry is dropped when its share is full. 0 means 1024.
	ParkedCapacity int
	// SweepInterval is how often the sweeper scans for idle sessions;
	// 0 means max(IdleTTL/4, 1s). Ignored when IdleTTL is 0.
	SweepInterval time.Duration
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

// counters is the manager's monotonic activity record (atomics; read
// by Stats from any goroutine).
type counters struct {
	registered, resumed, replaced, rejected     atomic.Uint64
	ticks, slotReports, replans, replays        atomic.Uint64
	evictions, parkedDrops, drains, drainedSess atomic.Uint64
}

// Stats is a snapshot of the manager's counters and gauges.
type Stats struct {
	// SessionsLive and SessionsParked are current gauges.
	SessionsLive, SessionsParked int
	// Registered counts successful register calls; Resumed those that
	// restored a checkpoint (explicit or parked); Replaced those that
	// displaced an existing live session; Rejected those refused at
	// the session cap.
	Registered, Resumed, Replaced, Rejected uint64
	// Ticks counts tick operations, SlotReports the individual slot
	// reports applied, Replans the reports whose deviation triggered
	// an Algorithm 3 redistribution, and Replays duplicate-seq ticks
	// answered from session memory without re-applying.
	Ticks, SlotReports, Replans, Replays uint64
	// Evictions counts idle-TTL evictions, ParkedDrops parked
	// checkpoints displaced by capacity, Drains drain operations and
	// DrainedSessions the sessions they removed.
	Evictions, ParkedDrops, Drains, DrainedSessions uint64
}

// PartitionStats is one stripe's gauges.
type PartitionStats struct {
	// Sessions and Parked are the stripe's current session and
	// parked-checkpoint counts.
	Sessions, Parked int
}

// Manager owns the fleet's live sessions.
type Manager struct {
	cfg Config
	tab *stripe.Table[partition]
	now func() time.Time

	live, parked atomic.Int64
	ctr          counters
	closed       atomic.Bool

	// stop and sweeper run the idle sweeper; stop is nil, and no
	// goroutine exists, when IdleTTL is 0.
	stop    chan struct{}
	sweeper sync.WaitGroup
}

// New validates the configuration and returns a manager. It starts a
// goroutine only for the idle sweep, and only when IdleTTL is set.
func New(cfg Config) (*Manager, error) {
	if cfg.Partitions < 0 || cfg.Partitions > MaxPartitions {
		return nil, fmt.Errorf("fleet: partition count %d outside [0, %d]", cfg.Partitions, MaxPartitions)
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = DefaultPartitions()
	}
	cfg.Partitions = stripe.RoundUp(cfg.Partitions)
	if cfg.MaxSessions < 0 {
		return nil, fmt.Errorf("fleet: negative session cap %d", cfg.MaxSessions)
	}
	if cfg.IdleTTL < 0 {
		return nil, fmt.Errorf("fleet: negative idle TTL %s", cfg.IdleTTL)
	}
	if cfg.ParkedCapacity == 0 {
		cfg.ParkedCapacity = 1024
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = cfg.IdleTTL / 4
		if cfg.SweepInterval < time.Second {
			cfg.SweepInterval = time.Second
		}
	}
	m := &Manager{
		cfg: cfg,
		now: cfg.Now,
		tab: stripe.New(cfg.Partitions, func(p *partition) {
			p.sessions = make(map[string]*session)
			p.parked = make(map[string]*parkedState)
		}),
	}
	if m.now == nil {
		m.now = time.Now
	}
	if cfg.IdleTTL > 0 {
		m.stop = make(chan struct{})
		m.sweeper.Add(1)
		go m.sweepLoop()
	}
	return m, nil
}

// Partitions returns the (power-of-two) stripe count.
func (m *Manager) Partitions() int { return m.tab.Len() }

// Live returns the current live-session count.
func (m *Manager) Live() int { return int(m.live.Load()) }

// Stats snapshots the manager's counters.
func (m *Manager) Stats() Stats {
	return Stats{
		SessionsLive:    int(m.live.Load()),
		SessionsParked:  int(m.parked.Load()),
		Registered:      m.ctr.registered.Load(),
		Resumed:         m.ctr.resumed.Load(),
		Replaced:        m.ctr.replaced.Load(),
		Rejected:        m.ctr.rejected.Load(),
		Ticks:           m.ctr.ticks.Load(),
		SlotReports:     m.ctr.slotReports.Load(),
		Replans:         m.ctr.replans.Load(),
		Replays:         m.ctr.replays.Load(),
		Evictions:       m.ctr.evictions.Load(),
		ParkedDrops:     m.ctr.parkedDrops.Load(),
		Drains:          m.ctr.drains.Load(),
		DrainedSessions: m.ctr.drainedSess.Load(),
	}
}

// PartitionStats snapshots each stripe's gauges, in stripe order.
func (m *Manager) PartitionStats() []PartitionStats {
	out := make([]PartitionStats, 0, m.tab.Len())
	m.tab.Each(func(p *partition) {
		out = append(out, PartitionStats{Sessions: len(p.sessions), Parked: len(p.parked)})
	})
	return out
}

// session is one device's live manager, guarded by its stripe lock.
type session struct {
	mgr        *dpm.Manager
	lastActive time.Time

	// lastSeq and lastResult memoize the most recent deduplicated
	// tick, so a retry of a tick whose response was lost on the wire
	// replays the answer instead of double-applying the slot reports.
	lastSeq    uint64
	lastResult TickResult
}

// parkedState is an evicted session's handed-back checkpoint.
type parkedState struct {
	state  dpm.State
	slot   int
	charge float64
}

// partition is one stripe's share of the session table.
type partition struct {
	sessions    map[string]*session
	parked      map[string]*parkedState
	parkedOrder []string
}

// sweepLoop evicts idle sessions every SweepInterval until Close.
func (m *Manager) sweepLoop() {
	defer m.sweeper.Done()
	t := time.NewTicker(m.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.sweep(m.now())
		case <-m.stop:
			return
		}
	}
}

// sweep evicts sessions idle past the TTL, one stripe at a time,
// parking their checkpoints.
func (m *Manager) sweep(now time.Time) {
	m.tab.Each(func(p *partition) {
		for id, s := range p.sessions {
			if now.Sub(s.lastActive) >= m.cfg.IdleTTL {
				m.park(p, id, s)
			}
		}
	})
}

// park moves one session's checkpoint into the stripe's parked table
// and removes the live session.
func (m *Manager) park(p *partition, id string, s *session) {
	if _, exists := p.parked[id]; !exists {
		for len(p.parked) >= m.parkedCap() {
			oldest := p.parkedOrder[0]
			p.parkedOrder = p.parkedOrder[1:]
			if _, ok := p.parked[oldest]; ok {
				delete(p.parked, oldest)
				m.parked.Add(-1)
				m.ctr.parkedDrops.Add(1)
			}
		}
		p.parkedOrder = append(p.parkedOrder, id)
		m.parked.Add(1)
	}
	p.parked[id] = &parkedState{
		state:  s.mgr.Checkpoint(),
		slot:   s.mgr.Slot(),
		charge: s.mgr.Charge(),
	}
	delete(p.sessions, id)
	m.live.Add(-1)
	m.ctr.evictions.Add(1)
}

// parkedCap is one stripe's share of the parked capacity.
func (m *Manager) parkedCap() int {
	return max(m.cfg.ParkedCapacity/m.tab.Len(), 1)
}

// unpark removes and returns a parked checkpoint.
func (m *Manager) unpark(p *partition, id string) (*parkedState, bool) {
	ps, ok := p.parked[id]
	if !ok {
		return nil, false
	}
	delete(p.parked, id)
	m.parked.Add(-1)
	// parkedOrder may still name id; the capacity loop in park
	// tolerates stale entries.
	return ps, true
}

// RegisterSpec asks for a session.
type RegisterSpec struct {
	// DeviceID identifies the device; it is the session key.
	DeviceID string
	// Scenario is the device's planning environment (validated).
	Scenario trace.Scenario
	// Params is the Algorithm 2 hardware configuration.
	Params params.Config
	// Policy selects the Algorithm 3 redistribution flavor.
	Policy dpm.RedistributePolicy
	// Planner names the strategy backend the session's initial plan
	// comes from ("" = the paper's Algorithm 1); a restored
	// checkpoint's plan takes precedence.
	Planner string
	// State, when non-nil, is a checkpoint to resume from — a device
	// migrating in from the stateless /v1/replan flow, or re-joining
	// after a drain handed its checkpoint back.
	State *dpm.State
}

// RegisterResult reports the session's post-register state.
type RegisterResult struct {
	// Slot, ChargeJ and Plan mirror the session manager.
	Slot    int
	ChargeJ float64
	Plan    []float64
	// Resumed reports that a checkpoint (explicit or parked) was
	// restored; Replaced that an existing live session was displaced.
	Resumed  bool
	Replaced bool
}

// MaxDeviceID bounds device-id length.
const MaxDeviceID = 256

// ValidateDeviceID applies the device-id bounds.
func ValidateDeviceID(id string) error {
	if id == "" {
		return scenario.Errorf("deviceId is required")
	}
	if len(id) > MaxDeviceID {
		return scenario.Errorf("deviceId length %d exceeds %d", len(id), MaxDeviceID)
	}
	return nil
}

// Register creates (or replaces) the device's session. The manager is
// constructed — Algorithm 1 plus the memoized Algorithm 2 table —
// before the stripe lock is taken; only the install runs under it. An
// explicit checkpoint that the manager rejects fails with
// *BadCheckpointError before any session state changes. With no
// explicit checkpoint, a parked (evicted) checkpoint for the device is
// restored and consumed — the eviction handback path.
func (m *Manager) Register(ctx context.Context, spec RegisterSpec) (RegisterResult, error) {
	if m.closed.Load() {
		return RegisterResult{}, ErrClosed
	}
	if err := ValidateDeviceID(spec.DeviceID); err != nil {
		return RegisterResult{}, err
	}
	if err := scenario.Validate(spec.Scenario); err != nil {
		return RegisterResult{}, err
	}
	_, span := obs.StartSpan(ctx, "fleet.register")
	defer span.End()
	mgr, err := pipeline.NewManager(ctx, spec.Planner, spec.Scenario, spec.Params, spec.Policy)
	if err != nil {
		return RegisterResult{}, err
	}
	if spec.State != nil {
		if err := mgr.Restore(*spec.State); err != nil {
			return RegisterResult{}, &BadCheckpointError{Err: err}
		}
	}
	// Sessions live for hours; the Algorithm 1 iteration history is
	// presentation-only and would multiply per-session memory at
	// fleet scale.
	mgr.ReleaseInitial()

	st := m.tab.For(spec.DeviceID)
	p := st.Lock()
	defer st.Unlock()
	if m.closed.Load() {
		return RegisterResult{}, ErrClosed
	}
	_, replaced := p.sessions[spec.DeviceID]
	if !replaced {
		if n, max := m.live.Add(1), int64(m.cfg.MaxSessions); max > 0 && n > max {
			m.live.Add(-1)
			m.ctr.rejected.Add(1)
			return RegisterResult{}, ErrFull
		}
	}
	resumed := spec.State != nil
	if spec.State == nil {
		if ps, ok := m.unpark(p, spec.DeviceID); ok {
			// The parked checkpoint came from a manager with the same
			// session key; a restore failure means the device
			// re-registered with a different scenario — start fresh.
			if err := mgr.Restore(ps.state); err == nil {
				resumed = true
			}
		}
	} else {
		// An explicit checkpoint supersedes any parked one.
		m.unpark(p, spec.DeviceID)
	}
	p.sessions[spec.DeviceID] = &session{mgr: mgr, lastActive: m.now()}
	m.ctr.registered.Add(1)
	if resumed {
		m.ctr.resumed.Add(1)
	}
	if replaced {
		m.ctr.replaced.Add(1)
	}
	span.SetAttr("resumed", resumed)
	return RegisterResult{
		Slot:     mgr.Slot(),
		ChargeJ:  mgr.Charge(),
		Plan:     mgr.PlanSnapshot(),
		Resumed:  resumed,
		Replaced: replaced,
	}, nil
}

// TickSpec streams one device's completed-slot telemetry.
type TickSpec struct {
	// DeviceID names the session.
	DeviceID string
	// Seq, when non-zero, deduplicates retries: a tick repeating the
	// session's last seq is answered from memory without re-applying
	// its reports. Clients retrying ticks over a lossy wire must set
	// it.
	Seq uint64
	// Reports are the completed slots, oldest first (same bounds as
	// /v1/replan).
	Reports []pipeline.SlotReport
	// IncludeState returns the full checkpoint with the result — the
	// escape hatch back to the stateless flow.
	IncludeState bool
}

// TickResult is the delta replan a tick returns.
type TickResult struct {
	// Slot, ChargeJ and Plan mirror the session manager after the
	// reports are applied.
	Slot    int
	ChargeJ float64
	Plan    []float64
	// Replans counts the reports whose deviation triggered an
	// Algorithm 3 redistribution.
	Replans int
	// Replayed reports a duplicate-seq tick answered from session
	// memory.
	Replayed bool
	// State is the checkpoint, only when requested.
	State *dpm.State
}

// Tick applies the reports to the session under its stripe lock and
// returns the updated plan. Unknown devices fail with
// ErrUnknownDevice; idle-evicted ones with ErrEvicted (their
// checkpoint is parked and a re-register resumes it).
func (m *Manager) Tick(ctx context.Context, spec TickSpec) (TickResult, error) {
	if m.closed.Load() {
		return TickResult{}, ErrClosed
	}
	if err := ValidateDeviceID(spec.DeviceID); err != nil {
		return TickResult{}, err
	}
	if err := pipeline.ValidateReports(spec.Reports); err != nil {
		return TickResult{}, err
	}
	ctx, span := obs.StartSpan(ctx, "fleet.tick")
	defer span.End()
	span.SetAttr("slots", len(spec.Reports))
	st := m.tab.For(spec.DeviceID)
	p := st.Lock()
	defer st.Unlock()
	s, err := m.session(p, spec.DeviceID)
	if err != nil {
		return TickResult{}, err
	}
	if spec.Seq != 0 && spec.Seq == s.lastSeq {
		res := s.lastResult
		res.Replayed = true
		if !spec.IncludeState {
			res.State = nil
		}
		m.ctr.replays.Add(1)
		return res, nil
	}
	_, rspan := obs.StartSpan(ctx, "fleet.replan")
	replans := m.apply(s, spec.Reports)
	rspan.SetAttr("replans", replans)
	rspan.End()
	res := TickResult{
		Slot:    s.mgr.Slot(),
		ChargeJ: s.mgr.Charge(),
		Plan:    s.mgr.PlanSnapshot(),
		Replans: replans,
	}
	if spec.IncludeState || spec.Seq != 0 {
		cp := s.mgr.Checkpoint()
		res.State = &cp
	}
	if spec.Seq != 0 {
		s.lastSeq = spec.Seq
		s.lastResult = res
	}
	if !spec.IncludeState {
		res.State = nil
	}
	return res, nil
}

// Observe applies one completed-slot report to the device's session:
// Tick's inner step without the plan copy, the seq memo or the spans.
// The telemetry flush runs it once per device per window. It reports
// whether the deviation triggered an Algorithm 3 redistribution.
func (m *Manager) Observe(deviceID string, rep pipeline.SlotReport) (bool, error) {
	reports := [1]pipeline.SlotReport{rep}
	if err := pipeline.ValidateReports(reports[:]); err != nil {
		return false, err
	}
	st := m.tab.For(deviceID)
	p := st.Lock()
	defer st.Unlock()
	s, err := m.session(p, deviceID)
	if err != nil {
		return false, err
	}
	return m.apply(s, reports[:]) > 0, nil
}

// Charge returns the device's battery-charge estimate in joules: the
// live session's, or the parked checkpoint's for an idle-evicted one.
func (m *Manager) Charge(deviceID string) (float64, bool) {
	st := m.tab.For(deviceID)
	p := st.Lock()
	defer st.Unlock()
	if s, ok := p.sessions[deviceID]; ok {
		return s.mgr.Charge(), true
	}
	if ps, ok := p.parked[deviceID]; ok {
		return ps.charge, true
	}
	return 0, false
}

// session returns the device's live session, marked active, or the
// error its absence maps to. The caller holds the device's stripe.
func (m *Manager) session(p *partition, deviceID string) (*session, error) {
	if m.closed.Load() {
		return nil, ErrClosed
	}
	s, ok := p.sessions[deviceID]
	if !ok {
		if _, parked := p.parked[deviceID]; parked {
			return nil, ErrEvicted
		}
		return nil, ErrUnknownDevice
	}
	s.lastActive = m.now()
	return s, nil
}

// apply runs the reports through the session's Algorithm 3 step and
// counts them as one tick, returning how many triggered a
// redistribution. The caller holds the session's stripe.
func (m *Manager) apply(s *session, reports []pipeline.SlotReport) int {
	replans := 0
	for _, rep := range reports {
		if s.mgr.EndSlotReplan(rep.UsedJ, rep.SuppliedJ) {
			replans++
		}
	}
	m.ctr.ticks.Add(1)
	m.ctr.slotReports.Add(uint64(len(reports)))
	m.ctr.replans.Add(uint64(replans))
	return replans
}

// Drained is one removed session's final checkpoint.
type Drained struct {
	// DeviceID names the session.
	DeviceID string
	// Slot and ChargeJ summarize where it stopped.
	Slot    int
	ChargeJ float64
	// State is the full checkpoint.
	State dpm.State
	// Evicted marks checkpoints recovered from the parked (idle-
	// evicted) table rather than a live session.
	Evicted bool
}

// Drain removes every session — live and parked — and returns each
// final checkpoint exactly once, sorted by device id. Each stripe's
// removal is atomic under its lock: a concurrent tick is either
// applied before the drain (and included in the checkpoint) or
// answered ErrUnknownDevice after it. The manager stays usable;
// devices may re-register.
func (m *Manager) Drain(ctx context.Context) ([]Drained, error) {
	if m.closed.Load() {
		return nil, ErrClosed
	}
	_, span := obs.StartSpan(ctx, "fleet.drain")
	defer span.End()
	all := m.drainAll()
	m.ctr.drains.Add(1)
	m.ctr.drainedSess.Add(uint64(len(all)))
	span.SetAttr("sessions", len(all))
	return all, nil
}

// drainAll removes and checkpoints every session and parked entry,
// one stripe at a time, sorted by device id.
func (m *Manager) drainAll() []Drained {
	var out []Drained
	m.tab.Each(func(p *partition) {
		for id, s := range p.sessions {
			out = append(out, Drained{
				DeviceID: id,
				Slot:     s.mgr.Slot(),
				ChargeJ:  s.mgr.Charge(),
				State:    s.mgr.Checkpoint(),
			})
			delete(p.sessions, id)
			m.live.Add(-1)
		}
		for id, ps := range p.parked {
			out = append(out, Drained{
				DeviceID: id,
				Slot:     ps.slot,
				ChargeJ:  ps.charge,
				State:    ps.state,
				Evicted:  true,
			})
			delete(p.parked, id)
			m.parked.Add(-1)
		}
		p.parkedOrder = p.parkedOrder[:0]
	})
	sort.Slice(out, func(i, j int) bool { return out[i].DeviceID < out[j].DeviceID })
	return out
}

// SweepNow forces an idle sweep — deterministic eviction for tests and
// operational tooling.
func (m *Manager) SweepNow(ctx context.Context) error {
	if m.closed.Load() {
		return ErrClosed
	}
	if m.cfg.IdleTTL > 0 {
		m.sweep(m.now())
	}
	return nil
}

// Close marks the manager closed, stops the idle sweeper and returns
// the final checkpoints of whatever sessions remained — the shutdown
// drain. Each stripe is drained under its lock, so Close waits out any
// operation still holding one, and an operation that takes a stripe
// after it sees the flag. Close is idempotent; after it every
// operation fails with ErrClosed. Callers that want the checkpoints on
// an orderly shutdown should Drain first (over HTTP: POST
// /v1/fleet/drain during the drain-grace window), since Close's return
// value has nowhere to go once the listener is down.
func (m *Manager) Close() []Drained {
	if m.closed.Swap(true) {
		return nil
	}
	if m.stop != nil {
		close(m.stop)
		m.sweeper.Wait()
	}
	return m.drainAll()
}
