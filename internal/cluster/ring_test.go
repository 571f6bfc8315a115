package cluster

import (
	"fmt"
	"testing"
)

// TestRingBoundedDistribution places a session population across fleets of
// 1, 3 and 16 backends and checks the bounded-load guarantee: no backend
// ever exceeds ceil(factor × total / n) sessions, and no backend starves.
func TestRingBoundedDistribution(t *testing.T) {
	const sessions = 5000
	const factor = 1.25
	for _, n := range []int{1, 3, 16} {
		t.Run(fmt.Sprintf("backends=%d", n), func(t *testing.T) {
			r := NewRing(0, factor)
			for i := 0; i < n; i++ {
				if err := r.Add(fmt.Sprintf("backend-%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			placed := make([]string, sessions)
			for i := range placed {
				id, ok := r.Acquire(fmt.Sprintf("session-%05d", i))
				if !ok {
					t.Fatalf("session %d unplaceable on a %d-backend ring", i, n)
				}
				placed[i] = id
			}
			bound := int(factor*sessions/float64(n)) + 1 // ceil, conservatively
			total := 0
			for _, id := range r.Backends() {
				load := r.Load(id)
				total += load
				if load > bound {
					t.Errorf("backend %s holds %d sessions, bounded-load cap is %d", id, load, bound)
				}
				if load == 0 {
					t.Errorf("backend %s starved (0 of %d sessions)", id, sessions)
				}
			}
			if total != sessions {
				t.Errorf("ring accounts for %d sessions, placed %d", total, sessions)
			}
			// Releasing every placement returns the ring to empty load.
			for _, id := range placed {
				r.Release(id)
			}
			for _, id := range r.Backends() {
				if load := r.Load(id); load != 0 {
					t.Errorf("backend %s still holds %d sessions after releasing all", id, load)
				}
			}
		})
	}
}

// TestRingMinimalMovement pins the property consistent hashing exists for:
// adding a backend only moves keys onto the new backend (nothing shuffles
// between survivors), the moved fraction is near 1/(n+1), and removing it
// again restores the exact original assignment.
func TestRingMinimalMovement(t *testing.T) {
	const keys = 10000
	for _, n := range []int{3, 16} {
		t.Run(fmt.Sprintf("backends=%d", n), func(t *testing.T) {
			r := NewRing(0, 0)
			for i := 0; i < n; i++ {
				if err := r.Add(fmt.Sprintf("backend-%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			before := make([]string, keys)
			for i := range before {
				before[i], _ = r.Lookup(fmt.Sprintf("key-%05d", i))
			}

			const newcomer = "backend-new"
			if err := r.Add(newcomer); err != nil {
				t.Fatal(err)
			}
			moved := 0
			for i := range before {
				after, _ := r.Lookup(fmt.Sprintf("key-%05d", i))
				if after == before[i] {
					continue
				}
				moved++
				if after != newcomer {
					t.Fatalf("key %d moved %s → %s: keys may only move onto the joining backend",
						i, before[i], after)
				}
			}
			want := float64(keys) / float64(n+1)
			if f := float64(moved); f < want/2 || f > want*2 {
				t.Errorf("join moved %d keys, want ≈ %.0f (1/(n+1) of %d)", moved, want, keys)
			}

			r.Remove(newcomer)
			for i := range before {
				if after, _ := r.Lookup(fmt.Sprintf("key-%05d", i)); after != before[i] {
					t.Fatalf("key %d maps to %s after leave, originally %s: leave must restore the assignment",
						i, after, before[i])
				}
			}
		})
	}
}

// TestRingEdgeCases covers the empty ring, duplicate adds and unknown
// removals/releases.
func TestRingEdgeCases(t *testing.T) {
	r := NewRing(8, 1.25)
	if _, ok := r.Lookup("k"); ok {
		t.Error("empty ring Lookup reported an owner")
	}
	if _, ok := r.Acquire("k"); ok {
		t.Error("empty ring Acquire placed a session")
	}
	if err := r.Add("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("a"); err == nil {
		t.Error("duplicate Add succeeded")
	}
	if err := r.Add(""); err == nil {
		t.Error("empty backend id accepted")
	}
	r.Remove("ghost") // no-op
	r.Release("ghost")
	r.Release("a") // load already 0: no underflow
	if id, ok := r.Lookup("k"); !ok || id != "a" {
		t.Errorf("Lookup on singleton ring = %q/%t, want a/true", id, ok)
	}
	if got := r.Load("a"); got != 0 {
		t.Errorf("load = %d after no-op releases, want 0", got)
	}
}

// TestRingClosedBackend: a closed backend takes no new placement and is left
// out of the bound's average, but keeps its load — the sessions it still
// carries release their slots as they leave — and a reopened backend places
// again with that load counted.
func TestRingClosedBackend(t *testing.T) {
	r := NewRing(8, 1)
	for _, id := range []string{"a", "b"} {
		if err := r.Add(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		r.Acquire(fmt.Sprint("k", i))
	}
	loadA := r.Load("a")
	r.SetOpen("a", false)
	if ids := r.Backends(); r.Len() != 1 || len(ids) != 1 || ids[0] != "b" {
		t.Errorf("open backends = %v (Len %d), want [b]", ids, r.Len())
	}
	// Bound ceil(1 × (load(b)+1) / 1) always admits b: a's load stays out
	// of the average.
	for i := 0; i < 8; i++ {
		key := fmt.Sprint("closed-", i)
		if id, ok := r.Lookup(key); !ok || id != "b" {
			t.Fatalf("Lookup(%s) = %q/%t with a closed, want b", key, id, ok)
		}
		if id, ok := r.Acquire(key); !ok || id != "b" {
			t.Fatalf("Acquire(%s) = %q/%t with a closed, want b", key, id, ok)
		}
	}
	if got := r.Load("a"); got != loadA {
		t.Errorf("closed backend's load = %d, want the %d it carried", got, loadA)
	}
	if loadA > 0 {
		r.Release("a")
		if got := r.Load("a"); got != loadA-1 {
			t.Errorf("load after a release on the closed backend = %d, want %d", got, loadA-1)
		}
	}
	r.SetOpen("b", false)
	if _, ok := r.Acquire("k"); ok {
		t.Error("Acquire placed a session with every backend closed")
	}
	if _, ok := r.Lookup("k"); ok {
		t.Error("Lookup named an owner with every backend closed")
	}
	r.SetOpen("a", true)
	r.SetOpen("ghost", false) // no-op
	if ids := r.Backends(); len(ids) != 1 || ids[0] != "a" {
		t.Errorf("open backends after reopening a = %v, want [a]", ids)
	}
	r.Remove("b")
	if err := r.Add("b"); err != nil || r.Load("b") != 0 || r.Len() != 2 {
		t.Errorf("re-added b: err %v, load %d, Len %d; want open with load 0", err, r.Load("b"), r.Len())
	}
}

// FuzzRingLookup drives arbitrary membership churn and then requires that
// Lookup and Acquire never panic and always return a live backend exactly
// when the ring is non-empty.
func FuzzRingLookup(f *testing.F) {
	f.Add([]byte{0, 1, 2}, "session-1")
	f.Add([]byte{}, "")
	f.Add([]byte{3, 0, 3, 1, 7, 255}, "user-42")
	f.Fuzz(func(t *testing.T, ops []byte, key string) {
		r := NewRing(4, 1.25)
		live := make(map[string]bool)
		for _, op := range ops {
			id := fmt.Sprintf("backend-%d", op%8)
			switch {
			case op%4 == 3:
				r.Remove(id)
				delete(live, id)
			default:
				if err := r.Add(id); (err == nil) == live[id] {
					t.Fatalf("Add(%s) err=%v with live=%t", id, err, live[id])
				}
				live[id] = true
			}
		}
		for _, probe := range []func(string) (string, bool){r.Lookup, r.Acquire} {
			id, ok := probe(key)
			if ok != (len(live) > 0) {
				t.Fatalf("ok=%t with %d live backends", ok, len(live))
			}
			if ok && !live[id] {
				t.Fatalf("returned dead backend %q", id)
			}
		}
		if len(live) > 0 {
			id, _ := r.Lookup(key)
			r.Release(id)
		}
	})
}
