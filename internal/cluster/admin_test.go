package cluster_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"gesturecep/internal/cluster"
	"gesturecep/internal/e2e"
	"gesturecep/internal/kinect"
	"gesturecep/internal/obs"
	"gesturecep/internal/serve"
	"gesturecep/internal/wire"
)

// eventFields indexes one event's fields by key.
func eventFields(e obs.Event) map[string]any {
	fields := make(map[string]any, len(e.Fields))
	for _, f := range e.Fields {
		fields[f.Key] = f.Value
	}
	return fields
}

// TestMembershipVerbsLogOnce pins the fleet's one record of what was asked
// of it: every membership verb, applied or refused, leaves exactly one event
// in gw.Events, carrying op and backend, sessions for a drain, and err for
// a refusal.
func TestMembershipVerbsLogOnce(t *testing.T) {
	h := e2e.Start(t, e2e.Options{
		Backends:      2,
		Gateway:       true,
		Serve:         serve.Config{Shards: 1, QueueDepth: 128},
		Record:        true,
		ProbeInterval: -1,
	})
	gw := h.Gateway
	tuples := kinect.ToTuples(e2e.PlaybackFrames(t, 7))
	cl := h.Dial()
	for i := 0; i < 4; i++ {
		rs, err := cl.Attach(fmt.Sprintf("log-%d", i), wire.AttachOptions{BatchSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range tuples[:64] {
			if err := rs.FeedTuple(tp); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rs.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var victim, victimAddr, survivor string // the victim carries sessions
	for _, row := range gw.BackendsInfo() {
		if row.Sessions > 0 && victim == "" {
			victim, victimAddr = row.ID, row.Addr
		} else {
			survivor = row.ID
		}
	}

	// step runs one verb and returns the fields of the one event it left.
	step := func(op, id string, refused bool, verb func() error) map[string]any {
		t.Helper()
		before := len(gw.Events(0))
		err := verb()
		if (err != nil) != refused {
			t.Fatalf("%s %q: err = %v, want refused = %v", op, id, err, refused)
		}
		events := gw.Events(0)
		if len(events) != before+1 {
			t.Fatalf("%s %q left %d events, want exactly 1: %v", op, id, len(events)-before, events[before:])
		}
		e := events[len(events)-1]
		fields := eventFields(e)
		if fields["op"] != op || fields["backend"] != id {
			t.Errorf("%s %q logged %s", op, id, e)
		}
		if _, hasErr := fields["err"]; hasErr != refused {
			t.Errorf("%s %q logged %s; want err only on a refusal", op, id, e)
		}
		if refused && e.Level != obs.LevelWarn {
			t.Errorf("refused %s %q logged at %s, want warn", op, id, e.Level)
		}
		return fields
	}
	drain := func(id string, refused bool) (int, map[string]any) {
		t.Helper()
		var moved int
		fields := step("drain", id, refused, func() (err error) {
			moved, err = gw.Drain(id)
			return err
		})
		if fields["sessions"] != moved {
			t.Errorf("drain %q logged sessions = %v, moved %d", id, fields["sessions"], moved)
		}
		return moved, fields
	}

	step("add", "", true, func() error { return gw.AddBackend("", "127.0.0.1:1") })
	step("add", survivor, true, func() error { return gw.AddBackend(survivor, "127.0.0.1:1") })
	step("remove", survivor, true, func() error { return gw.RemoveBackend(survivor) })
	drain("no-such-backend", true)
	if moved, _ := drain(victim, false); moved == 0 {
		t.Fatalf("drain of %s moved no session", victim)
	}
	// The last live backend's sessions have nowhere to go: the drain
	// reverts, and its one event says so.
	if moved, fields := drain(survivor, true); moved != 0 || !strings.Contains(fmt.Sprint(fields["err"]), "no live backend") {
		t.Errorf("last-backend drain moved %d, logged err %v", moved, fields["err"])
	}
	step("add", victim, false, func() error { return gw.AddBackend(victim, victimAddr) })
	drain(victim, false)
	step("remove", victim, false, func() error { return gw.RemoveBackend(victim) })
}

// TestControllerHTTPRollingRestart drives the full rolling-restart cycle the
// way an operator would — entirely over the admin plane's HTTP endpoints:
// read /backends to pick a victim, POST /backends/drain, POST /backends/add
// to re-admit it, and audit the whole story through /events and the
// gateway's MigrationStats. Refusals (draining the last backend, removing a
// live one, bad bodies, wrong methods, a closed gateway) must map onto the
// right status codes.
func TestControllerHTTPRollingRestart(t *testing.T) {
	tuples := kinect.ToTuples(e2e.PlaybackFrames(t, 7))
	h := e2e.Start(t, e2e.Options{
		Backends:      2,
		Gateway:       true,
		Serve:         serve.Config{Shards: 1, QueueDepth: 128},
		Record:        true,
		ProbeInterval: -1,
	})
	gw := h.Gateway
	admin, err := obs.StartAdmin("127.0.0.1:0", obs.AdminConfig{Routes: gw.AdminRoutes(), Events: gw.Events})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	get := func(path string, out any) int {
		t.Helper()
		resp, err := http.Get("http://" + admin.Addr().String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if out != nil {
			if err := json.Unmarshal(body, out); err != nil {
				t.Fatalf("GET %s: %v in %q", path, err, body)
			}
		}
		return resp.StatusCode
	}
	post := func(path, body string, out any) int {
		t.Helper()
		resp, err := http.Post("http://"+admin.Addr().String()+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if out != nil {
			if err := json.Unmarshal(b, out); err != nil {
				t.Fatalf("POST %s: %v in %q", path, err, b)
			}
		}
		return resp.StatusCode
	}

	// Live sessions make the drain a real migration, not a no-op retire.
	cl := h.Dial()
	const sessions = 6
	rss := make([]*wire.RemoteSession, sessions)
	for i := range rss {
		rs, err := cl.Attach(fmt.Sprintf("op-%02d", i), wire.AttachOptions{BatchSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		rss[i] = rs
		for _, tp := range tuples[:len(tuples)/2] {
			if err := rs.FeedTuple(tp); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rs.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// The operator's first look: /backends lists the whole fleet live, with
	// the sessions spread across it.
	var fleet []cluster.BackendInfo
	if code := get("/backends", &fleet); code != 200 {
		t.Fatalf("GET /backends = %d, want 200", code)
	}
	if len(fleet) != 2 {
		t.Fatalf("/backends lists %d rows, want 2", len(fleet))
	}
	total := 0
	victim := ""
	victimAddr := ""
	for _, row := range fleet {
		if row.State != cluster.StateLive {
			t.Errorf("backend %s state = %q, want live", row.ID, row.State)
		}
		if row.Sessions != row.RingLoad {
			t.Errorf("backend %s sessions=%d ring_load=%d, want equal", row.ID, row.Sessions, row.RingLoad)
		}
		total += row.Sessions
		if row.Sessions > 0 && victim == "" {
			victim, victimAddr = row.ID, row.Addr
		}
	}
	if total != sessions {
		t.Errorf("/backends accounts for %d sessions, want %d", total, sessions)
	}
	if victim == "" {
		t.Fatal("no backend carries a session")
	}

	// The reply to a membership POST, built from the call.
	type opReply struct {
		Op       string `json:"op"`
		Backend  string `json:"backend"`
		Sessions int    `json:"sessions_moved"`
		Err      string `json:"err"`
	}

	// Drain the victim over HTTP; the reply must carry the moved count.
	var rec opReply
	if code := post("/backends/drain", `{"id":"`+victim+`"}`, &rec); code != 200 {
		t.Fatalf("POST /backends/drain = %d, want 200 (%+v)", code, rec)
	}
	if rec.Op != "drain" || rec.Backend != victim || rec.Sessions == 0 || rec.Err != "" {
		t.Errorf("drain reply = %+v, want a clean drain of %s with sessions moved", rec, victim)
	}
	movedFirst := rec.Sessions

	// Draining the survivor must refuse — its sessions have nowhere to go —
	// and surface as 409 with the error in the reply.
	survivor := fleet[0].ID
	if survivor == victim {
		survivor = fleet[1].ID
	}
	if code := post("/backends/drain", `{"id":"`+survivor+`"}`, &rec); code != 409 {
		t.Fatalf("draining the last backend = %d, want 409 (%+v)", code, rec)
	}
	if rec.Err == "" || rec.Sessions != 0 {
		t.Errorf("refused drain reply = %+v, want an error and no sessions moved", rec)
	}

	// /backends now shows the drained/survivor split.
	if get("/backends", &fleet); len(fleet) != 2 {
		t.Fatalf("/backends lists %d rows, want 2", len(fleet))
	}
	for _, row := range fleet {
		switch row.ID {
		case victim:
			if row.State != cluster.StateDrained || row.Sessions != 0 || row.RingLoad != 0 {
				t.Errorf("drained row = %+v, want state=drained sessions=0 ring_load=0", row)
			}
		default:
			if row.State != cluster.StateLive || row.Sessions != sessions {
				t.Errorf("survivor row = %+v, want live with all %d sessions", row, sessions)
			}
		}
	}

	// Removing the live survivor must refuse; removing the drained victim is
	// legal but would forget its address — re-add it instead (the redeploy
	// leg of the rolling restart) and then drain the survivor through it.
	if code := post("/backends/remove", `{"id":"`+survivor+`"}`, &rec); code != 409 {
		t.Fatalf("removing a live backend = %d, want 409 (%+v)", code, rec)
	}
	rec = opReply{} // "err" is omitempty: clear the refusal before decoding a success
	if code := post("/backends/add", `{"id":"`+victim+`","addr":"`+victimAddr+`"}`, &rec); code != 200 || rec.Err != "" {
		t.Fatalf("re-adding the drained backend = %d (%+v), want 200", code, rec)
	}
	if code := post("/backends/drain", `{"id":"`+survivor+`"}`, &rec); code != 200 || rec.Sessions != sessions || rec.Err != "" {
		t.Fatalf("draining the survivor = %d (%+v), want 200 with all %d sessions moved", code, rec, sessions)
	}
	if code := post("/backends/remove", `{"id":"`+survivor+`"}`, &rec); code != 200 || rec.Err != "" {
		t.Fatalf("removing the drained survivor = %d (%+v), want 200", code, rec)
	}
	if get("/backends", &fleet); len(fleet) != 1 || fleet[0].ID != victim {
		t.Fatalf("/backends after remove lists %+v, want only %s", fleet, victim)
	}

	// The sessions survived two migrations; finish the stream and verify the
	// wire contract held end to end.
	for i, rs := range rss {
		for _, tp := range tuples[len(tuples)/2:] {
			if err := rs.FeedTuple(tp); err != nil {
				t.Fatal(err)
			}
		}
		c, err := rs.Detach()
		if err != nil {
			t.Fatalf("session %d detach: %v", i, err)
		}
		if c.In != uint64(len(tuples)) || c.Out != c.In || c.Dropped != 0 {
			t.Errorf("session %d counters = %+v, want in=out=%d dropped=0", i, c, len(tuples))
		}
	}

	// Input validation: bad JSON, a missing id, an add without addr, and
	// wrong methods on every route. None of them reaches a verb.
	if code := post("/backends/drain", `{`, nil); code != 400 {
		t.Errorf("bad JSON body = %d, want 400", code)
	}
	if code := post("/backends/drain", `{}`, nil); code != 400 {
		t.Errorf("missing id = %d, want 400", code)
	}
	if code := post("/backends/add", `{"id":"x"}`, nil); code != 400 {
		t.Errorf("add without addr = %d, want 400", code)
	}
	if code := post("/backends", ``, nil); code != 405 {
		t.Errorf("POST /backends = %d, want 405", code)
	}
	if code := get("/backends/drain", nil); code != 405 {
		t.Errorf("GET /backends/drain = %d, want 405", code)
	}
	if code := get("/migrations", nil); code != 404 {
		t.Errorf("GET /migrations = %d, want 404: /events is the record", code)
	}

	// The audit trail: one event per operation in apply order (drain,
	// refused drain, refused remove, add, drain, remove), with the moved
	// counts on the applied drains.
	var events []obs.Event
	if code := get("/events", &events); code != 200 {
		t.Fatalf("GET /events = %d, want 200", code)
	}
	var got []string
	for _, e := range events {
		f := eventFields(e)
		if _, ok := f["op"]; !ok {
			continue
		}
		line := fmt.Sprintf("%v %v", f["op"], f["backend"])
		if _, refused := f["err"]; refused {
			line += " refused"
		} else if n, ok := f["sessions"]; ok {
			line += fmt.Sprintf(" sessions=%v", n)
		}
		got = append(got, line)
	}
	want := []string{
		fmt.Sprintf("drain %s sessions=%d", victim, movedFirst),
		"drain " + survivor + " refused",
		"remove " + survivor + " refused",
		"add " + victim,
		fmt.Sprintf("drain %s sessions=%d", survivor, sessions),
		"remove " + survivor,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("/events membership trail:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	// The refused last-backend drain attempted (and failed) one migration
	// before reverting, so the gateway's ledger shows exactly one failure.
	if ms := gw.MigrationStats(); ms.Migrations != uint64(movedFirst+sessions) || ms.Failed != 1 {
		t.Errorf("migration stats = %+v, want %d completed migrations and 1 failed", ms, movedFirst+sessions)
	}

	// A closed gateway refuses every verb as 409 but keeps serving the
	// read-only endpoints.
	gw.Close()
	if code := post("/backends/drain", `{"id":"`+victim+`"}`, &rec); code != 409 {
		t.Errorf("drain after Close = %d, want 409", code)
	}
	if !strings.Contains(rec.Err, "gateway closed") {
		t.Errorf("closed-gateway reply err = %q, want the closed refusal", rec.Err)
	}
	if code := get("/backends", &fleet); code != 200 {
		t.Errorf("GET /backends after Close = %d, want 200", code)
	}
}

// TestBackfillEndpoint drives a fleet backfill entirely over the admin
// plane: record sessions through the gateway, POST /backfill, and require
// the summary and (when asked) the per-stream detections to come back.
func TestBackfillEndpoint(t *testing.T) {
	h := e2e.Start(t, e2e.Options{
		Backends:      3,
		Gateway:       true,
		Record:        true,
		Serve:         serve.Config{Shards: 1},
		ProbeInterval: -1,
	})
	admin, err := obs.StartAdmin("127.0.0.1:0", obs.AdminConfig{Routes: h.Gateway.AdminRoutes()})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	post := func(body string, out any) int {
		t.Helper()
		resp, err := http.Post("http://"+admin.Addr().String()+"/backfill", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if out != nil {
			if err := json.Unmarshal(b, out); err != nil {
				t.Fatalf("POST /backfill: %v in %q", err, b)
			}
		}
		return resp.StatusCode
	}

	cl := h.Dial()
	streams := []string{"bf-a", "bf-b", "bf-c"}
	for i, name := range streams {
		rs, err := cl.Attach(name, wire.AttachOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := e2e.FeedFrames(rs, e2e.PlaybackFrames(t, int64(11+i))); err != nil {
			t.Fatal(err)
		}
		if _, err := rs.Detach(); err != nil {
			t.Fatal(err)
		}
	}

	var reply struct {
		Streams        []string                    `json:"streams"`
		Missing        []string                    `json:"missing"`
		Found          int                         `json:"found"`
		Records        uint64                      `json:"records"`
		Tuples         uint64                      `json:"tuples"`
		DetectionTotal int                         `json:"detection_total"`
		Detections     map[string][]map[string]any `json:"detections"`
		Stats          map[string]any              `json:"stats"`
	}
	body := `{"streams": ["bf-a", "bf-b", "bf-c"], "include_detections": true}`
	if code := post(body, &reply); code != 200 {
		t.Fatalf("POST /backfill = %d, want 200", code)
	}
	if reply.Found != 3 || len(reply.Missing) != 0 {
		t.Fatalf("found %d, missing %v; want all 3 streams located", reply.Found, reply.Missing)
	}
	if reply.DetectionTotal == 0 || reply.Tuples == 0 {
		t.Fatalf("empty reply: %+v", reply)
	}
	total := 0
	for _, name := range streams {
		group, ok := reply.Detections[name]
		if !ok {
			t.Errorf("reply lacks detections entry for %q", name)
			continue
		}
		total += len(group)
		for _, d := range group {
			if d["gesture"] != "swipe_right" {
				t.Errorf("stream %q detection gesture = %v", name, d["gesture"])
			}
		}
	}
	if total != reply.DetectionTotal {
		t.Errorf("detection groups total %d, summary says %d", total, reply.DetectionTotal)
	}

	// Without include_detections the groups stay off the wire.
	reply.Detections = nil
	if code := post(`{"streams": ["bf-a"]}`, &reply); code != 200 {
		t.Fatalf("POST /backfill = %d, want 200", code)
	}
	if reply.Detections != nil {
		t.Error("detections included without include_detections")
	}

	// Bad bodies and methods map to the right statuses.
	if code := post(`{"streams": []}`, nil); code != http.StatusBadRequest {
		t.Errorf("empty streams = %d, want 400", code)
	}
	if code := post(`{`, nil); code != http.StatusBadRequest {
		t.Errorf("truncated body = %d, want 400", code)
	}
	resp, err := http.Get("http://" + admin.Addr().String() + "/backfill")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /backfill = %d, want 405", resp.StatusCode)
	}
}
