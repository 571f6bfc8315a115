package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"gesturecep/internal/obs"
	"gesturecep/internal/wire"
)

// AdminRoutes returns the gateway's membership and backfill endpoints,
// shaped for obs.AdminConfig.Routes:
//
//	GET  /backends         — BackendsInfo: one serve.BackendMetrics row per
//	                         member (id, addr, state, incarnation, ring_load,
//	                         sessions, proxy counters); no backend is asked
//	POST /backends/add     — {"id": ..., "addr": ...}
//	POST /backends/drain   — {"id": ...}
//	POST /backends/remove  — {"id": ...}
//	POST /backfill         — {"streams": [...], "gestures": [...],
//	                         "since_ns": ..., "until_ns": ...,
//	                         "include_detections": bool}; fans the evaluation
//	                         out across the live fleet (Backfill)
//
// A verb replies 200 when it applied and 409 with its error when it was
// refused; a bad body is 400, a wrong method 405. The reply is built from
// the call and kept nowhere: the verb's event in /events is the record.
func (gw *Gateway) AdminRoutes() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"/backends":        gw.handleBackends,
		"/backends/add":    gw.handleOp("add"),
		"/backends/drain":  gw.handleOp("drain"),
		"/backends/remove": gw.handleOp("remove"),
		"/backfill":        gw.handleBackfill,
	}
}

func (gw *Gateway) handleBackends(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	obs.WriteJSON(w, http.StatusOK, gw.BackendsInfo())
}

// opRequest is the body of every membership POST.
type opRequest struct {
	ID   string `json:"id"`
	Addr string `json:"addr,omitempty"`
}

// opReply is one membership verb's outcome.
type opReply struct {
	Op       string        `json:"op"`
	Backend  string        `json:"backend"`
	Addr     string        `json:"addr,omitempty"`
	Sessions int           `json:"sessions_moved"`
	Duration time.Duration `json:"duration_ns"`
	Err      string        `json:"err,omitempty"`
}

func (gw *Gateway) handleOp(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req opRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
			return
		}
		if req.ID == "" {
			http.Error(w, `"id" is required`, http.StatusBadRequest)
			return
		}
		if op == "add" && req.Addr == "" {
			http.Error(w, `"addr" is required`, http.StatusBadRequest)
			return
		}
		reply := opReply{Op: op, Backend: req.ID}
		start := time.Now()
		var err error
		switch op {
		case "add":
			reply.Addr = req.Addr
			err = gw.AddBackend(req.ID, req.Addr)
		case "drain":
			reply.Sessions, err = gw.Drain(req.ID)
		case "remove":
			err = gw.RemoveBackend(req.ID)
		}
		reply.Duration = time.Since(start)
		status := http.StatusOK
		if err != nil {
			reply.Err = err.Error()
			status = http.StatusConflict
		}
		obs.WriteJSON(w, status, reply)
	}
}

// backfillRequest is the POST /backfill body: the wire request, and whether
// the reply should carry the detections.
type backfillRequest struct {
	wire.BackfillRequest
	IncludeDetections bool `json:"include_detections,omitempty"`
}

// backfillDetection is one merged detection in the reply, keyed to its
// stream — JSON-shaped because the admin plane is an operator surface, not
// the data plane.
type backfillDetection struct {
	Gesture  string    `json:"gesture"`
	QueryID  int       `json:"query_id"`
	StartNs  int64     `json:"start_ns"`
	EndNs    int64     `json:"end_ns"`
	Measures []float64 `json:"measures,omitempty"`
}

// backfillReply is the POST /backfill payload: the merge summary and the
// detections per stream when asked for. The gateway's lifetime backfill
// counters are on /metrics.
type backfillReply struct {
	*BackfillResult
	DetectionTotal int                            `json:"detection_total"`
	Detections     map[string][]backfillDetection `json:"detections,omitempty"`
}

func (gw *Gateway) handleBackfill(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req backfillRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return
	}
	if len(req.Streams) == 0 {
		http.Error(w, `"streams" is required`, http.StatusBadRequest)
		return
	}
	res, err := gw.Backfill(req.BackfillRequest)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	reply := backfillReply{
		BackfillResult: res,
		DetectionTotal: res.DetectionTotal(),
	}
	if req.IncludeDetections {
		reply.Detections = make(map[string][]backfillDetection, len(res.Streams))
		for i, name := range res.Streams {
			group := make([]backfillDetection, len(res.Detections[i]))
			for j, d := range res.Detections[i] {
				group[j] = backfillDetection{
					Gesture:  d.Gesture,
					QueryID:  d.QueryID,
					StartNs:  d.Start.UnixNano(),
					EndNs:    d.End.UnixNano(),
					Measures: d.Measures,
				}
			}
			reply.Detections[name] = group
		}
	}
	obs.WriteJSON(w, http.StatusOK, reply)
}
