package stripe

import (
	"fmt"
	"sync"
	"testing"
)

func TestRoundUp(t *testing.T) {
	for n, want := range map[int]int{-3: 1, 0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 16: 16, 17: 32} {
		if got := RoundUp(n); got != want {
			t.Errorf("RoundUp(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestHashIsFNV1a pins the routing hash to the FNV-1a reference
// vectors, so every table routes a device id the same way.
func TestHashIsFNV1a(t *testing.T) {
	for key, want := range map[string]uint64{
		"":       0xcbf29ce484222325,
		"a":      0xaf63dc4c8601ec8c,
		"foobar": 0x85944171f73967e8,
	} {
		if got := Hash(key); got != want {
			t.Errorf("Hash(%q) = %#x, want %#x", key, got, want)
		}
	}
}

// TestRoutingAndEach: a key always routes to the same stripe, keys
// spread over every stripe, and Each visits each stripe once, in
// order, holding its lock.
func TestRoutingAndEach(t *testing.T) {
	tab := New(5, func(m *map[string]int) { *m = map[string]int{} })
	if tab.Len() != 8 {
		t.Fatalf("Len = %d, want 8", tab.Len())
	}
	if tab.For("dev-1") != tab.For("dev-1") {
		t.Fatal("routing unstable")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 256; i++ {
				key := fmt.Sprintf("dev-%d-%d", g, i)
				st := tab.For(key)
				(*st.Lock())[key]++
				st.Unlock()
			}
		}(g)
	}
	wg.Wait()
	total, visited := 0, 0
	tab.Each(func(m *map[string]int) {
		if len(*m) == 0 {
			t.Errorf("stripe %d got no keys", visited)
		}
		if tab.Stripe(visited).mu.TryLock() {
			t.Errorf("Each visited stripe %d without its lock", visited)
		}
		total += len(*m)
		visited++
	})
	if visited != 8 || total != 4*256 {
		t.Fatalf("Each visited %d stripes holding %d keys, want 8 and %d", visited, total, 4*256)
	}
}
