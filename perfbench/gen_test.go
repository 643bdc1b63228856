package main

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"dpm/internal/ingest"
	"dpm/internal/plancache"
	"dpm/internal/scenario"
	"dpm/internal/server"
)

// streamBytes renders everything a workload sends for a seed: the plan
// bodies of both plan workloads, the register and tick bodies, and the
// datagrams of several telemetry windows.
func streamBytes(t *testing.T, seed int64) [][]byte {
	t.Helper()
	var out [][]byte
	cat, err := genCatalog(seed)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		z := newZipfStream(seed, w)
		for i := 0; i < 200; i++ {
			op := z.next()
			b := cat[op.idx].json
			if op.binary {
				b = cat[op.idx].bin
			}
			out = append(out, b)
		}
	}
	bases, err := genColdBases(seed)
	if err != nil {
		t.Fatal(err)
	}
	cs := newColdStream(seed, 0)
	for i := 0; i < 200; i++ {
		_, _, b := cs.next(bases, nil)
		out = append(out, b)
	}
	fleet, err := genDevices(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet.all() {
		out = append(out, d.register)
	}
	fs := newFleetStream(seed)
	for i := 0; i < 600; i++ {
		op := fs.next(fleet.tickers)
		if op.register {
			out = append(out, fleet.tickers[op.dev].register)
			continue
		}
		out = append(out, appendTickBody(nil, fleet.tickers[op.dev].id, op.usedJ, op.supplied))
	}
	for w := 0; w < 3; w++ {
		for _, i := range burstOrder(seed, w, deviceCount) {
			out = append(out, appendDatagram(nil, &fleet.telemetry[i], w))
		}
	}
	return out
}

func TestSameSeedSameBytes(t *testing.T) {
	a, b := streamBytes(t, 7), streamBytes(t, 7)
	if len(a) != len(b) {
		t.Fatalf("%d vs %d inputs", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("input %d differs between two runs of seed 7:\n%.200s\n%.200s", i, a[i], b[i])
		}
	}
}

func TestDifferentSeedDifferentBytes(t *testing.T) {
	a, b := streamBytes(t, 7), streamBytes(t, 8)
	same := 0
	for i := range a {
		if bytes.Equal(a[i], b[i]) {
			same++
		}
	}
	// Only the first window's charge lines can coincide by chance.
	if same > len(a)/100 {
		t.Fatalf("%d of %d inputs identical across seeds 7 and 8", same, len(a))
	}
}

func TestSlotMix(t *testing.T) {
	cat, err := genCatalog(3)
	if err != nil {
		t.Fatal(err)
	}
	count := map[int]int{}
	for _, in := range cat {
		sc := in.req.Scenario
		n := sc.Usage.Len()
		count[n]++
		if sc.Charging.Len() != n || sc.Usage.Step != slotStep(n) {
			t.Fatalf("%s: %d slots of %gs, charging %d", sc.Name, n, sc.Usage.Step, sc.Charging.Len())
		}
		if math.Abs(float64(n)*sc.Usage.Step-map[bool]float64{true: 57.6, false: 86400}[n == 12]) > 1e-9 {
			t.Fatalf("%s: period %g", sc.Name, float64(n)*sc.Usage.Step)
		}
		if err := scenario.Validate(sc); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
	}
	for _, n := range slotMix {
		if count[n] != catalogSize/len(slotMix) {
			t.Fatalf("slot mix %v, want %d of each of %v", count, catalogSize/len(slotMix), slotMix)
		}
	}
}

// TestZipfDraw checks the plan_zipf draw against Zipf(1.1) over the
// catalog ranks and the even encoding split.
func TestZipfDraw(t *testing.T) {
	const draws = 400_000
	z := newZipfStream(11, 0)
	hist := make([]int, catalogSize)
	binary := 0
	for i := 0; i < draws; i++ {
		op := z.next()
		hist[op.idx]++
		if op.binary {
			binary++
		}
	}
	// rand.Zipf draws k with probability ∝ (1+k)^-s.
	var norm float64
	for k := 0; k < catalogSize; k++ {
		norm += math.Pow(float64(1+k), -zipfS)
	}
	for _, k := range []int{0, 1, 2, 9, 99} {
		want := draws * math.Pow(float64(1+k), -zipfS) / norm
		if got := float64(hist[k]); math.Abs(got-want) > 5*math.Sqrt(want) {
			t.Errorf("rank %d drawn %v times, want %.0f ± %.0f", k, got, want, 5*math.Sqrt(want))
		}
	}
	if share := float64(binary) / draws; math.Abs(share-0.5) > 0.005 {
		t.Errorf("binary share %.4f, want 0.5", share)
	}
}

// TestWorkingSet simulates the server's sharded LRU (default 256
// entries; JSON and binary bodies are cached under separate keys) on
// the plan_zipf draw, and a shared entry per plan for comparison. It
// pins the hit ratio the workload is built around.
func TestWorkingSet(t *testing.T) {
	lru := func(shared bool) float64 {
		const capacity, draws = 256, 200_000
		order := list.New()
		items := map[string]*list.Element{}
		hits := 0
		z := newZipfStream(5, 0)
		for i := 0; i < draws; i++ {
			op := z.next()
			key := fmt.Sprint(op.idx)
			if !shared && op.binary {
				key += "b"
			}
			if el, ok := items[key]; ok {
				order.MoveToFront(el)
				hits++
				continue
			}
			items[key] = order.PushFront(key)
			if order.Len() > capacity {
				delete(items, order.Remove(order.Back()).(string))
			}
		}
		return float64(hits) / draws
	}
	split, shared := lru(false), lru(true)
	t.Logf("plan_zipf LRU hit ratio at 256 entries: %.3f split keyspaces, %.3f one entry per plan", split, shared)
	if split < 0.6 || split > 0.8 || shared <= split {
		t.Fatalf("hit ratios %.3f split / %.3f shared outside the workload's design", split, shared)
	}
}

// TestColdKeysUnique checks that plan_cold never repeats a cache key.
func TestColdKeysUnique(t *testing.T) {
	bases, err := genColdBases(9)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for w := 0; w < workers; w++ {
		cs := newColdStream(9, w)
		for i := 0; i < 3000; i++ {
			op, req, body := cs.next(bases, nil)
			if !op.binary {
				var got server.PlanRequest
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatal(err)
				}
				if got.Scenario.CapacityMax != req.Scenario.CapacityMax {
					t.Fatalf("JSON body carries capacityMax %v, want %v", got.Scenario.CapacityMax, req.Scenario.CapacityMax)
				}
			}
			req.Scenario.Name = ""
			key, err := plancache.Key("plan", req)
			if err != nil {
				t.Fatal(err)
			}
			if seen[key] {
				t.Fatalf("worker %d op %d repeats a planning input", w, i)
			}
			seen[key] = true
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 50); !ok || v != 500 {
		t.Fatalf("p50 = %v, %v; want 500, true", v, ok)
	}
	if v, ok := percentile(xs, 99); !ok || v != 990 {
		t.Fatalf("p99 = %v, %v; want 990 with 10 beyond", v, ok)
	}
	if _, ok := percentile(xs[:999], 99); ok {
		t.Fatal("p99 of 999 samples has 9 beyond it and must not be reported")
	}
	if v, ok := percentile([]float64{3, 5, 7}, 50); ok || v != 5 {
		t.Fatalf("p50 of 3 samples = %v, %v; want 5, unsupported", v, ok)
	}
}

// TestGateRejectsCorruptBody flips one byte of a correct response in
// each encoding and expects the gate to fail it.
func TestGateRejectsCorruptBody(t *testing.T) {
	cat, err := genCatalog(2)
	if err != nil {
		t.Fatal(err)
	}
	sc := cat[3].req.Scenario
	want, err := expectedPlan(sc)
	if err != nil {
		t.Fatal(err)
	}
	resp := *want
	resp.Scenario = sc.Name
	js, err := json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	bin := server.AppendPlanResponseBinary(nil, &resp)
	for _, c := range []struct {
		name   string
		body   []byte
		binary bool
		at     int
	}{
		{"json", js, false, bytes.Index(js, []byte(`"allocation":[`)) + 15},
		{"binary", bin, true, len(bin) - 3},
	} {
		if err := checkPlanBody(sc, c.body, c.binary, want); err != nil {
			t.Fatalf("%s: intact body rejected: %v", c.name, err)
		}
		bad := append([]byte(nil), c.body...)
		bad[c.at] ^= 0x01
		if err := checkPlanBody(sc, bad, c.binary, want); err == nil {
			t.Fatalf("%s: corrupted body at byte %d accepted", c.name, c.at)
		}
	}
}

func TestReconcileIngest(t *testing.T) {
	ok := ingestStats(100, 200, 50, 2, 0)
	if errs := reconcileIngest(ok, 25, 0); len(errs) != 0 {
		t.Fatalf("consistent counters rejected: %v", errs)
	}
	lost := ingestStats(100, 200, 50, 2, 3)
	if errs := reconcileIngest(lost, 25, 0); len(errs) == 0 {
		t.Fatal("lines applied without a drop reason accepted")
	}
	if errs := reconcileIngest(ok, 25, 1); len(errs) == 0 {
		t.Fatal("a missing cardinality refusal accepted")
	}
}

// ingestStats builds daemon counters for datagrams of two lines each,
// flushes over devices, with unexplained lines short of applied.
func ingestStats(datagrams, lines, slots, flushes, unexplained uint64) ingest.Stats {
	return ingest.Stats{
		Datagrams: datagrams, Lines: lines, Parsed: lines,
		SamplesApplied: lines - unexplained, Drops: map[string]uint64{},
		SlotsClosed: slots, Flushes: flushes, Devices: int(slots / flushes),
	}
}
