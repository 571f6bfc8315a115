package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// Ring defaults.
const (
	// DefaultVNodes is the number of virtual nodes per backend. 64 points
	// per backend keeps the per-backend arc lengths within a few percent of
	// each other while membership changes stay cheap (re-sorting a few
	// hundred points).
	DefaultVNodes = 64
	// DefaultLoadFactor is the bounded-load factor c: no backend is handed
	// more than ceil(c × average) sessions. 1.25 is the classic
	// consistent-hashing-with-bounded-loads setting — tight enough to cap
	// skew, loose enough that lookups rarely have to walk past the first
	// owner.
	DefaultLoadFactor = 1.25
)

// point is one virtual node: a position on the hash circle owned by a
// backend.
type point struct {
	hash uint64
	id   string
}

// Ring is a consistent-hash ring with virtual nodes and bounded-load
// placement: Lookup maps a key to the backend owning the first virtual node
// at or after the key's hash, and Acquire additionally skips backends that
// already hold their fair share of sessions (load > ceil(c × average)),
// walking on to the next arc. A backend can be closed to new placements
// (a drain) while keeping its points and its load; Lookup and Acquire skip
// it, and the average is over the open backends. Safe for concurrent use.
//
// Two properties matter to the gateway above it:
//
//   - minimal movement — adding or removing one backend only remaps the
//     keys on the arcs that backend's virtual nodes owned, about 1/n of
//     the keyspace;
//   - bounded skew — with load factor c, no backend's session count
//     exceeds ceil(c × (total+1) / n), by the pigeonhole walk in Acquire.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	factor float64
	points []point         // sorted by hash
	loads  map[string]int  // sessions currently placed per backend
	closed map[string]bool // backends closed to new placements
}

// NewRing creates an empty ring. vnodes <= 0 selects DefaultVNodes; factor
// < 1 selects DefaultLoadFactor (a factor below 1 cannot place anything —
// the bound would sit under the average).
func NewRing(vnodes int, factor float64) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	if factor < 1 {
		factor = DefaultLoadFactor
	}
	return &Ring{vnodes: vnodes, factor: factor, loads: make(map[string]int), closed: make(map[string]bool)}
}

// mix64 finalizes a hash value (the splitmix64 finalizer). FNV alone
// distributes sequential vnode suffixes poorly; the finalizer spreads them
// over the full circle.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// Add inserts a backend's virtual nodes. Adding a present backend is an
// error (the caller tracks membership; a silent double-add would double the
// backend's arc share).
func (r *Ring) Add(id string) error {
	if id == "" {
		return fmt.Errorf("cluster: empty backend id")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.loads[id]; dup {
		return fmt.Errorf("cluster: backend %q already on the ring", id)
	}
	r.loads[id] = 0
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, point{hash: hashKey(id + "#" + strconv.Itoa(v)), id: id})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return nil
}

// Remove ejects a backend, its virtual nodes and its load: the sessions it
// carried hold no slot until they re-Acquire elsewhere. Removing an absent
// backend is a no-op.
func (r *Ring) Remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.loads[id]; !ok {
		return
	}
	delete(r.loads, id)
	delete(r.closed, id)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.id != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// SetOpen closes a backend to new placements (open false) or reopens it.
// A closed backend keeps its points and its load, so the sessions it still
// carries stay charged to it and Release them as they leave. Setting an
// absent backend is a no-op.
func (r *Ring) SetOpen(id string, open bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.loads[id]; !ok {
		return
	}
	if open {
		delete(r.closed, id)
	} else {
		r.closed[id] = true
	}
}

// Backends returns the open backend IDs, sorted.
func (r *Ring) Backends() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.loads))
	for id := range r.loads {
		if !r.closed[id] {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of open backends.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.loads) - len(r.closed)
}

// Load returns the sessions currently placed on a backend, open or closed.
func (r *Ring) Load(id string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.loads[id]
}

// start returns the index of the first point at or after the key's hash.
// Callers hold r.mu.
func (r *Ring) start(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Lookup maps a key to its owning open backend, ignoring load — the pure
// consistent-hash assignment that the minimal-movement property speaks
// about. ok is false when no backend is open.
func (r *Ring) Lookup(key string) (id string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	start := r.start(key)
	for i := range r.points {
		if p := r.points[(start+i)%len(r.points)]; !r.closed[p.id] {
			return p.id, true
		}
	}
	return "", false
}

// Acquire places a session: it walks the ring from the key's position and
// picks the first open backend whose load is below the bound
// ceil(factor × (total+1) / n), total and n taken over the open backends,
// then counts the session against it. The bound always admits at least one
// open backend (if every load reached it, the total would exceed itself),
// so the walk terminates on the first lap; the least-loaded fallback only
// guards the degenerate float paths. ok is false when no backend is open.
// Pair every Acquire with a Release.
func (r *Ring) Acquire(key string) (id string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, total := 0, 0
	for id, load := range r.loads {
		if !r.closed[id] {
			n++
			total += load
		}
	}
	if n == 0 {
		return "", false
	}
	avg := r.factor * float64(total+1) / float64(n)
	bound := int(avg)
	if float64(bound) < avg {
		bound++ // ceil
	}
	if bound < 1 {
		bound = 1
	}
	start := r.start(key)
	for i := range r.points {
		p := r.points[(start+i)%len(r.points)]
		if !r.closed[p.id] && r.loads[p.id] < bound {
			r.loads[p.id]++
			return p.id, true
		}
	}
	// Unreachable with factor ≥ 1; pick the least-loaded open backend so a
	// misconfigured ring still places rather than spins.
	min := ""
	for id := range r.loads {
		if !r.closed[id] && (min == "" || r.loads[id] < r.loads[min] || (r.loads[id] == r.loads[min] && id < min)) {
			min = id
		}
	}
	r.loads[min]++
	return min, true
}

// Release returns a session slot previously taken by Acquire. Releasing an
// already-removed backend is a no-op (Remove forgot its load wholesale).
func (r *Ring) Release(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if load, ok := r.loads[id]; ok && load > 0 {
		r.loads[id] = load - 1
	}
}
