// Package cluster scales the serving runtime horizontally: a Gateway
// terminates the wire protocol in front of a fleet of gestured backends and
// partitions remote sessions across them with a bounded-load consistent-hash
// ring, so the single-node determinism PRs 1–3 established survives
// scale-out unchanged — a session lives on exactly one backend, its tuples
// arrive there in feed order through one proxied connection, and its
// detections come back byte-identical to a direct single-node run.
//
// The moving parts:
//
//   - Ring — consistent hashing with virtual nodes plus the classic
//     bounded-load refinement: a backend never holds more than
//     ceil(c × average) sessions, so a hot arc cannot melt one node while
//     membership changes still move only ~1/n of the keyspace;
//   - Gateway — a frame-level proxy: batch payloads are validated
//     structurally, re-addressed in place and forwarded without decoding a
//     tuple; control frames (attach/flush/detach) round-trip to the owning
//     backend so the flush-ack contract ("every detection for tuples fed
//     before the ack") holds end to end;
//   - fleet — membership, lifecycle state, the current incarnation of
//     each backend and the ring over the live ones; one verified install
//     path serves startup, AddBackend and re-admission (fleet.go);
//   - health checking — each backend gets a dedicated probe connection
//     pinged on an interval; a probe failure, timeout, or data-path write
//     error ejects the backend from the ring;
//   - session ownership — one record per session, moved only by place,
//     bind and ensureOwnerLocked (owner.go). A drain migrates a session
//     with its state; when the owner died instead, its NFA progress died
//     with it, so every tuple forwarded to the dead incarnation is
//     charged to the session's Lost/Dropped accounting and surfaced
//     through the existing flush-ack and detection-push drop counters —
//     loss is explicit, never silent;
//   - admin plane — AdminRoutes serves the membership verbs and the fleet
//     backfill over HTTP (admin.go); every verb, applied or refused, is
//     one event in the gateway's log, which /events serves;
//   - Spawner — an in-process backend fleet (manager + wire server per
//     backend) for cmd/gesturegateway's all-in-one mode and the e2e test
//     harness.
package cluster

import (
	"fmt"
	"time"

	"gesturecep/internal/obs"
)

// Backend describes one wire backend the gateway fronts.
type Backend struct {
	// ID names the backend on the ring and in metrics. Must be unique.
	ID string
	// Addr is the backend's wire-protocol TCP address.
	Addr string
}

// Config tunes a Gateway.
type Config struct {
	// Backends is the initial fleet. All are dialed eagerly by NewGateway.
	Backends []Backend
	// Name identifies the gateway in Pong replies.
	Name string
	// VNodes is the number of virtual nodes per backend on the ring
	// (default DefaultVNodes).
	VNodes int
	// LoadFactor is the bounded-load factor c (default DefaultLoadFactor).
	LoadFactor float64
	// ProbeInterval is the health-check period (default 500ms; negative
	// disables probing — data-path errors still eject).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe round trip (default 2s). It also
	// bounds each re-dial attempt of the recovery machinery.
	ProbeTimeout time.Duration
	// Readmit enables backend recovery: an ejected backend is re-dialed
	// with capped exponential backoff and returned to the ring once it
	// answers pings again. Off, ejection is permanent for the gateway's
	// lifetime (the pre-recovery behavior).
	Readmit bool
	// ReadmitBackoff is the recovery loop's initial re-dial delay (default
	// 250ms); it doubles per failed attempt.
	ReadmitBackoff time.Duration
	// ReadmitMaxBackoff caps the exponential backoff (default 5s; raised to
	// ReadmitBackoff if set below it).
	ReadmitMaxBackoff time.Duration
	// TolerateDown admits initially-unreachable backends through the
	// recovery machinery instead of failing NewGateway: the gateway starts
	// serving on whatever subset of the fleet answered, and the rest join
	// the ring when they come up. Startup recovery runs even with Readmit
	// off; Readmit only governs recovery after a later ejection.
	TolerateDown bool
	// Logger, when non-nil, receives structured backend lifecycle events
	// (ejection, recovery, re-admission) with backend ID, incarnation and
	// state fields, one event per membership verb (op, backend, duration,
	// and sessions or err), and backs the admin plane's /events endpoint;
	// give it a sink to mirror each event elsewhere. When nil, the gateway
	// builds its own ring-buffered logger with no sink.
	Logger *obs.Logger
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.ReadmitBackoff <= 0 {
		c.ReadmitBackoff = 250 * time.Millisecond
	}
	if c.ReadmitMaxBackoff <= 0 {
		c.ReadmitMaxBackoff = 5 * time.Second
	}
	if c.ReadmitMaxBackoff < c.ReadmitBackoff {
		c.ReadmitMaxBackoff = c.ReadmitBackoff
	}
	return c
}

// BackendState is one step of a backend's lifecycle state machine:
//
//	         AddBackend
//	             │
//	             ▼
//	live ──eject──▶ ejected (terminal unless Readmit) ──RemoveBackend──▶ gone
//	  ▲  ▲             │ Readmit
//	  │  │         recovering ──re-dial + ping ok──▶ live (fresh incarnation)
//	  │  │             │ └──────────────────────────────▲
//	  │  │             └──RemoveBackend──▶ gone         │
//	  │  Drain                                     AddBackend
//	  │  │                                              │
//	  │  ▼                                              │
//	  │ draining ──every session migrated──▶ drained ───┘
//	  │    │                                    │
//	  └────┘ (no capacity: revert)              └──RemoveBackend──▶ gone
//
// A re-admitted backend is a brand-new incarnation — fresh data and probe
// connections, an empty session set — so a session still bound to a dead
// incarnation can never write to the new one. TolerateDown enters backends
// at "recovering" straight from NewGateway.
//
// Drain is the graceful counterpart of eject: the backend leaves the ring
// first (no new placements), then every session it carries is live-migrated
// onto the rest of the fleet with full NFA state — zero tuples lost, zero
// detections diverging — and only then are its connections dropped. A
// drained backend is out of the serving path but remains a configured
// member: AddBackend with the same ID re-admits it (the rolling-restart
// cycle), RemoveBackend forgets it.
type BackendState string

const (
	// StateLive: on the ring, receiving sessions, health-probed.
	StateLive BackendState = "live"
	// StateEjected: off the ring permanently (Readmit disabled).
	StateEjected BackendState = "ejected"
	// StateRecovering: off the ring; a recovery loop is re-dialing it with
	// capped exponential backoff.
	StateRecovering BackendState = "recovering"
	// StateDraining: off the ring; Drain is live-migrating its sessions
	// onto the rest of the fleet.
	StateDraining BackendState = "draining"
	// StateDrained: off the ring with zero sessions, connections closed;
	// awaiting AddBackend (re-admission) or RemoveBackend (decommission).
	StateDrained BackendState = "drained"
)

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.Backends) == 0 {
		return fmt.Errorf("cluster: no backends configured")
	}
	seen := make(map[string]struct{}, len(c.Backends))
	for _, b := range c.Backends {
		if b.ID == "" || b.Addr == "" {
			return fmt.Errorf("cluster: backend needs both an id and an address, got %+v", b)
		}
		if _, dup := seen[b.ID]; dup {
			return fmt.Errorf("cluster: duplicate backend id %q", b.ID)
		}
		seen[b.ID] = struct{}{}
	}
	return nil
}
