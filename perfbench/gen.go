package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"dpm/internal/schedule"
	"dpm/internal/server"
	"dpm/internal/trace"
)

// Input generation. Every input the benchmark sends is a pure function
// of the run's seed, so two runs with one seed send byte-identical
// request bodies and datagrams (the closed loop decides only how many
// of them go out in the window).

// slotMix is the fixed mix of schedule lengths: the paper's 12-slot
// orbit, an hourly day, and 15- and 5-minute days. Entry i of every
// catalog takes slotMix[i%4], so each length is exactly a quarter.
var slotMix = [...]int{12, 24, 96, 288}

// slotStep is τ in seconds for each length in slotMix: the orbit keeps
// the paper's 4.8 s, the three day lengths divide 86 400 s.
func slotStep(slots int) float64 {
	if slots == trace.Slots {
		return trace.Tau
	}
	return 86400 / float64(slots)
}

// Catalog and device counts, and the Zipf exponent of plan_zipf.
const (
	catalogSize = 1024
	deviceCount = 1024
	zipfS       = 1.1
	// eventEnergyJ is the dpmd -ingest-event-energy flag: one counted
	// event is 4.8 J, so the counter a device sends is usage·τ/4.8.
	eventEnergyJ = 4.8
	// usageJitter and chargeJitter are the trace.Perturb fractions
	// applied to the stretched paper schedules.
	usageJitter  = 0.2
	chargeJitter = 0.1
	// reRegisterEvery makes one fleet op in 256 a re-register.
	reRegisterEvery = 256
)

// Generator streams. Each stream seeds its own RNGs, so adding draws to
// one stream never shifts another.
const (
	streamCatalog = iota + 1
	streamCold
	streamFleet
	streamOps
	streamSample
	streamBurst
)

// mix is the splitmix64 finalizer: a well-spread hash of its input.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed derives the seed of item i of a stream from the run seed.
func subSeed(seed int64, stream, i int) int64 {
	return int64(mix(mix(mix(uint64(seed))^uint64(stream)) ^ uint64(i)))
}

// stretch repeats each value of a 12-slot grid so the result has slots
// entries of width step.
func stretch(g *schedule.Grid, slots int, step float64) *schedule.Grid {
	rep := slots / g.Len()
	out := make([]float64, 0, slots)
	for _, v := range g.Values {
		for k := 0; k < rep; k++ {
			out = append(out, v)
		}
	}
	return schedule.NewGrid(step, out)
}

// genScenario builds scenario i of a stream: a paper scenario (I or II,
// seeded) stretched to slotMix[i%4] slots, usage and charging perturbed
// with trace.Perturb, and the battery band scaled by the period ratio
// so the planning problem keeps the paper's proportions.
func genScenario(seed int64, stream, i int, name string) trace.Scenario {
	s := subSeed(seed, stream, i)
	base := trace.ScenarioI()
	if s&1 == 1 {
		base = trace.ScenarioII()
	}
	slots := slotMix[i%len(slotMix)]
	step := slotStep(slots)
	scale := float64(slots) * step / trace.Period
	return trace.Scenario{
		Name:          name,
		Charging:      trace.Perturb(stretch(base.Charging, slots, step), chargeJitter, s^0x5a),
		Usage:         trace.Perturb(stretch(base.Usage, slots, step), usageJitter, s^0xa5),
		CapacityMax:   base.CapacityMax * scale,
		CapacityMin:   base.CapacityMin * scale,
		InitialCharge: base.InitialCharge * scale,
	}
}

// planInput is one plan request in both wire forms.
type planInput struct {
	req  server.PlanRequest
	json []byte
	bin  []byte
}

func newPlanInput(sc trace.Scenario) (planInput, error) {
	in := planInput{req: server.PlanRequest{Scenario: sc}}
	b, err := json.Marshal(&in.req)
	if err != nil {
		return planInput{}, fmt.Errorf("encoding plan request %s: %w", sc.Name, err)
	}
	in.json = b
	in.bin = server.AppendPlanRequestBinary(nil, &in.req)
	return in, nil
}

// genCatalog builds the plan_zipf catalog: catalogSize scenarios,
// ranked by popularity (entry 0 is the most requested).
func genCatalog(seed int64) ([]planInput, error) {
	out := make([]planInput, catalogSize)
	for i := range out {
		in, err := newPlanInput(genScenario(seed, streamCatalog, i, fmt.Sprintf("cat-%04d", i)))
		if err != nil {
			return nil, err
		}
		out[i] = in
	}
	return out, nil
}

// planOp is one drawn plan request: which input, in which encoding.
type planOp struct {
	idx    int
	binary bool
}

// zipfStream draws plan_zipf ops: catalog rank from Zipf(1.1), then JSON
// or binary with equal odds.
type zipfStream struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newZipfStream(seed int64, worker int) *zipfStream {
	rng := rand.New(rand.NewSource(subSeed(seed, streamOps, worker)))
	return &zipfStream{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, catalogSize-1)}
}

func (z *zipfStream) next() planOp {
	return planOp{idx: int(z.zipf.Uint64()), binary: z.rng.Intn(2) == 1}
}

// coldBase is one plan_cold template: a scenario whose JSON body is
// split around its capacityMax value, so each op writes a fresh battery
// band without re-encoding the grids.
type coldBase struct {
	sc             trace.Scenario
	prefix, suffix []byte
}

// coldSentinel is the capacityMax written into a template to locate the
// value's bytes; no generated scenario has it.
const coldSentinel = 987654321.5

func genColdBases(seed int64) ([]coldBase, error) {
	out := make([]coldBase, catalogSize)
	for i := range out {
		sc := genScenario(seed, streamCold, i, fmt.Sprintf("cold-%04d", i))
		probe := sc
		probe.CapacityMax = coldSentinel
		b, err := json.Marshal(&server.PlanRequest{Scenario: probe})
		if err != nil {
			return nil, fmt.Errorf("encoding cold template %d: %w", i, err)
		}
		mark, err := json.Marshal(coldSentinel)
		if err != nil {
			return nil, err
		}
		at := bytes.Index(b, mark)
		if at < 0 || bytes.Count(b, mark) != 1 {
			return nil, fmt.Errorf("cold template %d: sentinel not unique", i)
		}
		out[i] = coldBase{sc: sc, prefix: b[:at], suffix: b[at+len(mark):]}
	}
	return out, nil
}

// coldStream draws plan_cold ops. Every op widens its template's battery
// band by a factor unique to the (worker, op) pair, so no two requests
// of a run share a planning input: the cache key ignores the scenario
// name, so varying the name alone would hit.
type coldStream struct {
	rng    *rand.Rand
	worker int
	n      int
}

func newColdStream(seed int64, worker int) *coldStream {
	return &coldStream{rng: rand.New(rand.NewSource(subSeed(seed, streamCold+100, worker))), worker: worker}
}

// next returns the op and the plan request it sends. buf is reused for
// the body.
func (c *coldStream) next(bases []coldBase, buf []byte) (planOp, server.PlanRequest, []byte) {
	op := planOp{idx: c.rng.Intn(len(bases)), binary: c.rng.Intn(2) == 1}
	uniq := uint64(c.n)*workers + uint64(c.worker) + 1
	c.n++
	b := &bases[op.idx]
	req := server.PlanRequest{Scenario: b.sc}
	req.Scenario.CapacityMax = b.sc.CapacityMax * (1 + float64(uniq)*0x1p-32)
	buf = buf[:0]
	if op.binary {
		buf = server.AppendPlanRequestBinary(buf, &req)
	} else {
		buf = append(buf, b.prefix...)
		buf = strconv.AppendFloat(buf, req.Scenario.CapacityMax, 'g', -1, 64)
		buf = append(buf, b.suffix...)
	}
	return op, req, buf
}

// inputs are the generated inputs of one workload.
type inputs struct {
	catalog []planInput
	cold    []coldBase
	fleet   *fleetDevices
}

func genInputs(wl string, seed int64) (*inputs, error) {
	in := &inputs{}
	var err error
	switch wl {
	case "plan_zipf":
		in.catalog, err = genCatalog(seed)
	case "plan_cold":
		in.cold, err = genColdBases(seed)
	case "fleet_ingest":
		in.fleet, err = genDevices(seed)
	default:
		err = fmt.Errorf("unknown workload %q", wl)
	}
	return in, err
}

// planSource draws one load worker's plan ops for plan_zipf or plan_cold.
type planSource struct {
	in   *inputs
	zipf *zipfStream
	cold *coldStream
	buf  []byte
}

func newPlanSource(wl string, seed int64, worker int, in *inputs) *planSource {
	if wl == "plan_zipf" {
		return &planSource{in: in, zipf: newZipfStream(seed, worker)}
	}
	return &planSource{in: in, cold: newColdStream(seed, worker)}
}

// next returns the op's scenario as sent, its body and whether the body
// is binary. A plan_cold body is valid until the next call.
func (p *planSource) next() (trace.Scenario, []byte, bool) {
	if p.zipf != nil {
		op := p.zipf.next()
		e := &p.in.catalog[op.idx]
		if op.binary {
			return e.req.Scenario, e.bin, true
		}
		return e.req.Scenario, e.json, false
	}
	op, req, b := p.cold.next(p.in.cold, p.buf)
	p.buf = b
	return req.Scenario, b, op.binary
}

// device is one fleet_ingest device.
type device struct {
	id       string
	sc       trace.Scenario
	register []byte // /v1/fleet/register body
}

// fleetDevices are fleet_ingest's two device sets. Both register at
// set-up, telemetry devices first, so the ingest daemon tracks exactly
// them (its default cap is 1024 devices) and refuses the tickers, which
// it counts as cardinality drops.
//
// The sets are disjoint so each session has one door: telemetry
// sessions advance only by flushes, ticker sessions only by HTTP ticks.
// Each session then sees the same reports in the same order on every
// run with the seed, its Algorithm 3 work is repeatable, and its slot
// is exactly its report count. With both doors on one session, the way
// flushes interleaved with ticks decided how each plan evolved, so the
// work differed from run to run and the slot could only be bounded.
type fleetDevices struct {
	telemetry, tickers []device
}

// all returns both sets in registration order.
func (f *fleetDevices) all() []device {
	return append(append([]device(nil), f.telemetry...), f.tickers...)
}

func genDevices(seed int64) (*fleetDevices, error) {
	tel, err := genDeviceSet(seed, 0, "tel")
	if err != nil {
		return nil, err
	}
	tick, err := genDeviceSet(seed, deviceCount, "tick")
	if err != nil {
		return nil, err
	}
	return &fleetDevices{telemetry: tel, tickers: tick}, nil
}

func genDeviceSet(seed int64, first int, prefix string) ([]device, error) {
	out := make([]device, deviceCount)
	for i := range out {
		id := fmt.Sprintf("%s-%04d", prefix, i)
		sc := genScenario(seed, streamFleet, first+i, id)
		b, err := json.Marshal(&server.FleetRegisterRequest{DeviceID: id, Scenario: sc})
		if err != nil {
			return nil, fmt.Errorf("encoding register %s: %w", id, err)
		}
		out[i] = device{id: id, sc: sc, register: b}
	}
	return out, nil
}

// fleetOp is one drawn op on a ticker device: a tick of one slot
// report, or (one op in reRegisterEvery) a re-register of the device.
type fleetOp struct {
	dev      int
	register bool
	usedJ    float64
	supplied float64
}

// fleetStream walks the devices in a seeded permutation.
type fleetStream struct {
	rng  *rand.Rand
	perm []int
	n    int
}

func newFleetStream(seed int64) *fleetStream {
	rng := rand.New(rand.NewSource(subSeed(seed, streamFleet+100, 0)))
	return &fleetStream{rng: rng, perm: rng.Perm(deviceCount)}
}

func (f *fleetStream) next(devs []device) fleetOp {
	k := f.n
	f.n++
	if k%reRegisterEvery == reRegisterEvery-1 {
		return fleetOp{dev: f.rng.Intn(len(devs)), register: true}
	}
	op := fleetOp{dev: f.perm[k%len(f.perm)]}
	sc := devs[op.dev].sc
	slot := k % sc.Usage.Len()
	step := sc.Usage.Step
	op.usedJ = sc.Usage.Values[slot] * step * (0.9 + 0.2*f.rng.Float64())
	op.supplied = sc.Charging.Values[slot] * step * (0.9 + 0.2*f.rng.Float64())
	return op
}

// appendTickBody appends the /v1/fleet/tick body for a one-slot report.
func appendTickBody(dst []byte, id string, usedJ, suppliedJ float64) []byte {
	dst = append(dst, `{"deviceId":"`...)
	dst = append(dst, id...)
	dst = append(dst, `","slots":[{"usedJ":`...)
	dst = strconv.AppendFloat(dst, usedJ, 'g', -1, 64)
	dst = append(dst, `,"suppliedJ":`...)
	dst = strconv.AppendFloat(dst, suppliedJ, 'g', -1, 64)
	return append(dst, "}]}"...)
}

// burstOrder is the order the devices send in during telemetry window
// w: reshuffled every window, as independent devices' clocks would be,
// so the datagrams the kernel drops from a full socket buffer are not
// always the same devices'.
func burstOrder(seed int64, w, n int) []int {
	return rand.New(rand.NewSource(subSeed(seed, streamBurst, w))).Perm(n)
}

// appendDatagram appends device d's datagram for telemetry window w: an
// events counter carrying the slot's planned usage energy in events and
// a gauge carrying its planned charging power. Sent as planned, a
// window that arrives whole closes on plan.
func appendDatagram(dst []byte, d *device, w int) []byte {
	slot := w % d.sc.Usage.Len()
	events := d.sc.Usage.Values[slot] * d.sc.Usage.Step / eventEnergyJ
	dst = append(dst, d.id...)
	dst = append(dst, ".events:"...)
	dst = strconv.AppendFloat(dst, events, 'g', -1, 64)
	dst = append(dst, "|c\n"...)
	dst = append(dst, d.id...)
	dst = append(dst, ".charge:"...)
	dst = strconv.AppendFloat(dst, d.sc.Charging.Values[slot], 'g', -1, 64)
	return append(dst, "|g"...)
}

// sampler picks the seeded sample of plan responses the gate re-plans
// in-process: one op in sampleEvery.
type sampler struct{ rng *rand.Rand }

const sampleEvery = 64

func newSampler(seed int64, worker int) *sampler {
	return &sampler{rng: rand.New(rand.NewSource(subSeed(seed, streamSample, worker)))}
}

func (s *sampler) pick() bool { return s.rng.Intn(sampleEvery) == 0 }
