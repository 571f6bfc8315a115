package cluster

import (
	"strings"
	"sync"
	"testing"
	"time"

	"gesturecep/internal/serve"
)

func TestConfigDefaults(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		in   Config
		want Config
	}{
		{
			name: "zero values pick the documented defaults",
			in:   Config{},
			want: Config{
				ProbeInterval:     500 * time.Millisecond,
				ProbeTimeout:      2 * time.Second,
				ReadmitBackoff:    250 * time.Millisecond,
				ReadmitMaxBackoff: 5 * time.Second,
			},
		},
		{
			name: "negative probe interval survives — it means probing is disabled",
			in:   Config{ProbeInterval: -1},
			want: Config{
				ProbeInterval:     -1,
				ProbeTimeout:      2 * time.Second,
				ReadmitBackoff:    250 * time.Millisecond,
				ReadmitMaxBackoff: 5 * time.Second,
			},
		},
		{
			name: "explicit values survive",
			in: Config{
				ProbeInterval:     time.Second,
				ProbeTimeout:      time.Second,
				ReadmitBackoff:    time.Millisecond,
				ReadmitMaxBackoff: time.Minute,
			},
			want: Config{
				ProbeInterval:     time.Second,
				ProbeTimeout:      time.Second,
				ReadmitBackoff:    time.Millisecond,
				ReadmitMaxBackoff: time.Minute,
			},
		},
		{
			name: "max backoff below the initial backoff is raised to it",
			in:   Config{ReadmitBackoff: time.Second, ReadmitMaxBackoff: 100 * time.Millisecond},
			want: Config{
				ProbeInterval:     500 * time.Millisecond,
				ProbeTimeout:      2 * time.Second,
				ReadmitBackoff:    time.Second,
				ReadmitMaxBackoff: time.Second,
			},
		},
	}
	for _, tc := range cases {
		got := tc.in.withDefaults()
		if got.ProbeInterval != tc.want.ProbeInterval ||
			got.ProbeTimeout != tc.want.ProbeTimeout ||
			got.ReadmitBackoff != tc.want.ReadmitBackoff ||
			got.ReadmitMaxBackoff != tc.want.ReadmitMaxBackoff {
			t.Errorf("%s: withDefaults = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		in      Config
		wantErr string // substring; "" means valid
	}{
		{"no backends", Config{}, "no backends"},
		{"empty id", Config{Backends: []Backend{{ID: "", Addr: "localhost:1"}}}, "both an id and an address"},
		{"empty addr", Config{Backends: []Backend{{ID: "b0", Addr: ""}}}, "both an id and an address"},
		{
			"duplicate id",
			Config{Backends: []Backend{{ID: "b0", Addr: "localhost:1"}, {ID: "b0", Addr: "localhost:2"}}},
			`duplicate backend id "b0"`,
		},
		{
			"distinct backends are fine",
			Config{Backends: []Backend{{ID: "b0", Addr: "localhost:1"}, {ID: "b1", Addr: "localhost:2"}}},
			"",
		},
	}
	for _, tc := range cases {
		err := tc.in.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: Validate = %v, want nil", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Validate = %v, want error containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestEjectConcurrentIdempotent races many ejectors of the same incarnation
// (run under -race in CI): exactly one must win — one ejections tick, one
// ring removal, one hand-off to the recovery loop — and the gateway must stay
// consistent however the losers interleave.
func TestEjectConcurrentIdempotent(t *testing.T) {
	sp, err := Spawn(2, serve.NewRegistry(), SpawnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	// The victim is alive: an hour of backoff keeps the recovery loop from
	// re-admitting it mid-assertion.
	gw, err := NewGateway(Config{Backends: sp.Backends(), ProbeInterval: -1, ReadmitBackoff: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	victim := sp.ID(0)
	m, _ := gw.fleet.lookup(victim)
	be := m.be
	if be == nil {
		t.Fatalf("backend %s not admitted", victim)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gw.eject(be, nil)
		}()
	}
	wg.Wait()

	if got := m.stats.ejections.Load(); got != 1 {
		t.Errorf("16 concurrent ejects of one incarnation counted %d ejections, want 1", got)
	}
	if gw.State(victim) != StateRecovering {
		t.Errorf("victim state = %q, want %q", gw.State(victim), StateRecovering)
	}
	if ids := gw.Ring().Backends(); len(ids) != 1 || ids[0] != sp.ID(1) {
		t.Errorf("ring holds %v after ejection, want only %s", ids, sp.ID(1))
	}
	// A second eject of the same (now long-dead) incarnation stays a no-op.
	gw.eject(be, nil)
	if got := m.stats.ejections.Load(); got != 1 {
		t.Errorf("late re-eject bumped ejections to %d", got)
	}
}
