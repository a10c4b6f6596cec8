// Package dataio reads and writes RkNNT datasets. Two formats are
// supported:
//
//   - CSV: the routes.csv / transitions.csv / edges.csv layout emitted by
//     cmd/rknnt-gen, for interchange with external tooling;
//   - the arena snapshot container (sections.go): a versioned binary file
//     of tagged, checksummed, 8-byte-aligned sections. WriteSnapshot
//     stores a dataset plus its network in it; internal/index and
//     internal/serve add further sections holding the R-tree arenas
//     verbatim, so a server can boot with a sequential read instead of a
//     CSV parse and bulk load. The format is specified normatively in
//     docs/ARCHITECTURE.md.
package dataio

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/model"
)

// WriteRoutesCSV writes routes as (route_id, seq, stop_id, x_km, y_km).
func WriteRoutesCSV(w io.Writer, routes []model.Route) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"route_id", "seq", "stop_id", "x_km", "y_km"}); err != nil {
		return err
	}
	for _, r := range routes {
		for i, p := range r.Pts {
			rec := []string{
				strconv.Itoa(int(r.ID)), strconv.Itoa(i), strconv.Itoa(int(r.Stops[i])),
				formatCoord(p.X), formatCoord(p.Y),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadRoutesCSV parses the WriteRoutesCSV format. Rows for one route must
// be contiguous and ordered by seq.
func ReadRoutesCSV(r io.Reader) ([]model.Route, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataio: routes csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("dataio: routes csv: empty file")
	}
	var routes []model.Route
	var cur *model.Route
	for ln, rec := range records[1:] {
		if len(rec) != 5 {
			return nil, fmt.Errorf("dataio: routes csv line %d: want 5 fields, got %d", ln+2, len(rec))
		}
		id, err1 := strconv.Atoi(rec[0])
		seq, err2 := strconv.Atoi(rec[1])
		stop, err3 := strconv.Atoi(rec[2])
		x, err4 := strconv.ParseFloat(rec[3], 64)
		y, err5 := strconv.ParseFloat(rec[4], 64)
		if err := firstErr(err1, err2, err3, err4, err5); err != nil {
			return nil, fmt.Errorf("dataio: routes csv line %d: %w", ln+2, err)
		}
		if cur == nil || cur.ID != model.RouteID(id) {
			routes = append(routes, model.Route{ID: model.RouteID(id)})
			cur = &routes[len(routes)-1]
		}
		if seq != len(cur.Pts) {
			return nil, fmt.Errorf("dataio: routes csv line %d: route %d out-of-order seq %d", ln+2, id, seq)
		}
		cur.Stops = append(cur.Stops, model.StopID(stop))
		cur.Pts = append(cur.Pts, geo.Pt(x, y))
	}
	return routes, nil
}

// WriteTransitionsCSV writes transitions as
// (transition_id, ox_km, oy_km, dx_km, dy_km, time).
func WriteTransitionsCSV(w io.Writer, ts []model.Transition) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"transition_id", "ox_km", "oy_km", "dx_km", "dy_km", "time"}); err != nil {
		return err
	}
	for _, t := range ts {
		rec := []string{
			strconv.Itoa(int(t.ID)),
			formatCoord(t.O.X), formatCoord(t.O.Y),
			formatCoord(t.D.X), formatCoord(t.D.Y),
			strconv.FormatInt(t.Time, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadTransitionsCSV parses the WriteTransitionsCSV format.
func ReadTransitionsCSV(r io.Reader) ([]model.Transition, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataio: transitions csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("dataio: transitions csv: empty file")
	}
	out := make([]model.Transition, 0, len(records)-1)
	for ln, rec := range records[1:] {
		if len(rec) != 6 {
			return nil, fmt.Errorf("dataio: transitions csv line %d: want 6 fields, got %d", ln+2, len(rec))
		}
		id, err1 := strconv.Atoi(rec[0])
		ox, err2 := strconv.ParseFloat(rec[1], 64)
		oy, err3 := strconv.ParseFloat(rec[2], 64)
		dx, err4 := strconv.ParseFloat(rec[3], 64)
		dy, err5 := strconv.ParseFloat(rec[4], 64)
		tm, err6 := strconv.ParseInt(rec[5], 10, 64)
		if err := firstErr(err1, err2, err3, err4, err5, err6); err != nil {
			return nil, fmt.Errorf("dataio: transitions csv line %d: %w", ln+2, err)
		}
		out = append(out, model.Transition{
			ID: model.TransitionID(id),
			O:  geo.Pt(ox, oy), D: geo.Pt(dx, dy),
			Time: tm,
		})
	}
	return out, nil
}

// WriteSnapshot serialises a dataset and (optionally nil) network to w as
// an arena snapshot container with routes, transitions and network
// sections. Routes and transitions are encoded sorted by ID, the
// container's canonical order.
func WriteSnapshot(w io.Writer, ds *model.Dataset, g *graph.Graph) error {
	routes := append([]model.Route(nil), ds.Routes...)
	sort.Slice(routes, func(i, j int) bool { return routes[i].ID < routes[j].ID })
	ts := append([]model.Transition(nil), ds.Transitions...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].ID < ts[j].ID })
	rb, err := MarshalRoutes(routes)
	if err != nil {
		return err
	}
	sw := NewSectionWriter(w)
	sw.Section(SecRoutes, rb)
	sw.Section(SecTransitions, MarshalTransitions(ts))
	if g != nil {
		sw.Section(SecNetwork, MarshalNetwork(g, nil))
	}
	return sw.Close()
}

// ReadSnapshot deserialises a dataset and network from an arena snapshot
// container. Containers carrying index sections decode too — the dataset
// sections are always present — so an index snapshot doubles as a
// dataset snapshot. The network is nil if none was stored.
func ReadSnapshot(r io.Reader) (*model.Dataset, *graph.Graph, error) {
	br := bufio.NewReader(r)
	prefix, err := br.Peek(len(ContainerMagic))
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, nil, fmt.Errorf("dataio: reading snapshot: %w", err)
	}
	if !IsContainer(prefix) {
		return nil, nil, fmt.Errorf("dataio: not an arena snapshot container; regenerate it with rknnt-gen -format snapshot")
	}
	secs, err := ReadSections(br)
	if err != nil {
		return nil, nil, err
	}
	return DatasetFromSections(secs)
}

// DatasetFromSections extracts the dataset and network from a parsed
// arena snapshot container.
func DatasetFromSections(secs *Sections) (*model.Dataset, *graph.Graph, error) {
	rb, ok := secs.Lookup(SecRoutes)
	if !ok {
		return nil, nil, fmt.Errorf("dataio: snapshot has no %q section", SecRoutes)
	}
	routes, err := UnmarshalRoutes(rb)
	if err != nil {
		return nil, nil, fmt.Errorf("dataio: %w", err)
	}
	tb, ok := secs.Lookup(SecTransitions)
	if !ok {
		return nil, nil, fmt.Errorf("dataio: snapshot has no %q section", SecTransitions)
	}
	ts, err := UnmarshalTransitions(tb)
	if err != nil {
		return nil, nil, fmt.Errorf("dataio: %w", err)
	}
	ds := &model.Dataset{Routes: routes, Transitions: ts}
	var g *graph.Graph
	if nb, ok := secs.Lookup(SecNetwork); ok {
		g, _, err = UnmarshalNetwork(nb)
		if err != nil {
			return nil, nil, fmt.Errorf("dataio: %w", err)
		}
	}
	return ds, g, nil
}

func formatCoord(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
