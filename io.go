package rknnt

import (
	"io"

	"repro/internal/dataio"
	"repro/internal/index"
)

// WriteRoutesCSV writes routes in the CSV layout emitted by cmd/rknnt-gen
// (route_id, seq, stop_id, x_km, y_km).
func WriteRoutesCSV(w io.Writer, routes []Route) error {
	return dataio.WriteRoutesCSV(w, routes)
}

// ReadRoutesCSV parses the WriteRoutesCSV layout.
func ReadRoutesCSV(r io.Reader) ([]Route, error) {
	return dataio.ReadRoutesCSV(r)
}

// WriteTransitionsCSV writes transitions in the CSV layout emitted by
// cmd/rknnt-gen (transition_id, ox_km, oy_km, dx_km, dy_km, time).
func WriteTransitionsCSV(w io.Writer, ts []Transition) error {
	return dataio.WriteTransitionsCSV(w, ts)
}

// ReadTransitionsCSV parses the WriteTransitionsCSV layout.
func ReadTransitionsCSV(r io.Reader) ([]Transition, error) {
	return dataio.ReadTransitionsCSV(r)
}

// WriteSnapshot serialises a dataset plus an optional network as an
// arena snapshot container (see docs/ARCHITECTURE.md for the format),
// for fast reload of large generated workloads.
func WriteSnapshot(w io.Writer, ds *Dataset, g *Network) error {
	return dataio.WriteSnapshot(w, ds, g)
}

// ReadSnapshot deserialises an arena snapshot container, including index
// snapshots, whose dataset sections are read and whose arenas are
// ignored. Any other input is an error. The network is nil when none was
// stored.
func ReadSnapshot(r io.Reader) (*Dataset, *Network, error) {
	return dataio.ReadSnapshot(r)
}

// WriteIndexSnapshot serialises the DB's built indexes — R-tree arenas
// verbatim, shard layout, NList aggregates, expiry heap and route table
// — so OpenIndexSnapshot can reopen the database with a sequential read
// instead of a bulk load.
func (db *DB) WriteIndexSnapshot(w io.Writer) error {
	return index.WriteSnapshot(w, db.idx)
}

// OpenIndexSnapshot reopens a database from a WriteIndexSnapshot blob.
// The loaded DB answers every query identically to the DB that was
// saved.
func OpenIndexSnapshot(r io.Reader) (*DB, error) {
	idx, err := index.ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return &DB{idx: idx}, nil
}
