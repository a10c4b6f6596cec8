package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/geo"
)

// handleWatch registers a standing continuous RkNNT query and streams
// its result-set deltas as server-sent events until the client
// disconnects. Query parameters:
//
//	p         repeated "x,y" pairs: ?p=0,0&p=10,0 (>= 2 points)
//	k         the k in RkNNT (>= 1)
//	semantics exists (default) | forall
//
// The stream opens with a "snapshot" event carrying the full initial
// result set, then emits one "delta" event per result-set change. If
// the client falls too far behind and deltas are dropped, a "resync"
// event with a fresh full result set replaces the lost deltas.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	pts, err := parseQueryPoints(q["p"])
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	k, err := strconv.Atoi(q.Get("k"))
	if err != nil || k < 1 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("k must be an integer >= 1, got %q", q.Get("k")))
		return
	}
	sem, err := parseSemantics(q.Get("semantics"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}

	st, err := s.engine.RegisterStanding(pts, k, sem)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer st.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	writeSSE(w, "snapshot", watchSnapshot{Query: int32(st.ID), Transitions: st.Initial})
	flusher.Flush()

	// resync replaces a gapped delta stream with a fresh authoritative
	// snapshot. The queued (pre-gap) deltas are drained first: replaying
	// them on top of the newer snapshot could undo a change the dropped
	// deltas carried.
	resync := func() bool {
		for {
			select {
			case <-st.Events:
			default:
				results, err := st.Results()
				if err != nil {
					return false
				}
				writeSSE(w, "resync", watchSnapshot{Query: int32(st.ID), Transitions: results})
				flusher.Flush()
				return true
			}
		}
	}

	// The heartbeat keeps proxies from timing the stream out and picks
	// up a pending resync even when no further deltas arrive.
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()

	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-heartbeat.C:
			if st.TakeDropped() {
				if !resync() {
					return
				}
				continue
			}
			fmt.Fprint(w, ": ping\n\n")
			flusher.Flush()
		case ev := <-st.Events:
			if st.TakeDropped() {
				if !resync() {
					return
				}
				continue
			}
			writeSSE(w, "delta", watchDelta{Transition: ev.Transition, Added: ev.Added})
			flusher.Flush()
		}
	}
}

func writeSSE(w http.ResponseWriter, event string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// parseQueryPoints parses repeated "x,y" parameters into points.
func parseQueryPoints(parts []string) ([]geo.Point, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("missing p parameters (want ?p=x1,y1&p=x2,y2...)")
	}
	if len(parts) < 2 {
		return nil, fmt.Errorf("query needs at least 2 points, got %d", len(parts))
	}
	pts := make([]geo.Point, len(parts))
	for i, part := range parts {
		xy := strings.Split(part, ",")
		if len(xy) != 2 {
			return nil, fmt.Errorf("bad point %q (want \"x,y\")", part)
		}
		x, errX := strconv.ParseFloat(strings.TrimSpace(xy[0]), 64)
		y, errY := strconv.ParseFloat(strings.TrimSpace(xy[1]), 64)
		if errX != nil || errY != nil {
			return nil, fmt.Errorf("bad point %q (want \"x,y\")", part)
		}
		if pts[i] = geo.Pt(x, y); !pts[i].Finite() {
			return nil, fmt.Errorf("coordinate out of range in %q, need |v| <= %g", part, geo.MaxCoord)
		}
	}
	return pts, nil
}
