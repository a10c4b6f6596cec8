// Command rknnt-serve runs the RkNNT serving layer: it loads or
// generates a dataset, builds the indexes and serves the HTTP/JSON API
// of internal/server (queries, planning, batched updates, standing
// queries over SSE).
//
// Data sources, in precedence order:
//
//	rknnt-serve -index data/city.arena              # arena index snapshot: warm boot, no bulk load
//	rknnt-serve -index data/city.arena -mmap        # ...served zero-copy out of a memory mapping
//	rknnt-serve -snapshot data/city.snapshot        # dataset snapshot (routes+transitions+graph)
//	rknnt-serve -csv data/                          # routes.csv + transitions.csv
//	rknnt-serve -gtfs gtfs/                         # GTFS feed (routes only; transitions arrive via the API)
//	rknnt-serve -preset nyc -scale 8                # synthetic city (default: la)
//
// With -save-index the server writes an arena snapshot once the indexes
// are ready, so the next start can warm-boot from it; a running server
// saves one on demand via POST /v1/snapshot.
//
// Then:
//
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/v1/rknnt -d '{"query":[{"x":10,"y":12},{"x":14,"y":12}],"k":10}'
//	curl -N 'localhost:8080/v1/watch?p=10,12&p=14,12&k=10'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dataio"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/gtfs"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	indexPath := flag.String("index", "", "warm-boot from an arena index snapshot (written by -save-index or POST /v1/snapshot)")
	mmapIndex := flag.Bool("mmap", false, "serve the -index snapshot straight out of a read-only memory mapping (zero-copy boot; unwritten shards stay file-backed)")
	snapshot := flag.String("snapshot", "", "load a dataset snapshot (routes, transitions and network)")
	csvDir := flag.String("csv", "", "load routes.csv and transitions.csv from this directory")
	gtfsDir := flag.String("gtfs", "", "load a GTFS feed from this directory (routes only)")
	preset := flag.String("preset", "la", "synthetic city preset: la, nyc or syn")
	scale := flag.Int("scale", 8, "divide the paper's cardinalities by this factor")
	synN := flag.Int("syn", 100000, "transition count for the syn preset")
	cacheSize := flag.Int("cache", 4096, "query-result LRU capacity")
	maxBatch := flag.Int("max-batch", 256, "max writes coalesced per batch")
	saveIndex := flag.String("save-index", "", "write an arena index snapshot here once the indexes are ready")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	slowlog := flag.Duration("slowlog", 0, "record traces for queries slower than this (e.g. 25ms; 0 disables)")
	slowlogCap := flag.Int("slowlog-cap", 64, "slow-query ring buffer capacity")
	flag.Parse()

	var (
		x        *index.Index
		g        *graph.Graph
		vertexOf map[model.StopID]graph.VertexID
		epochs   serve.EpochVec
		bootLoad time.Duration
		snapFile *serve.SnapshotFile
	)
	if *indexPath != "" {
		t0 := time.Now()
		sf, err := serve.OpenSnapshotFile(*indexPath, serve.SnapshotLoadOptions{Mmap: *mmapIndex})
		if err != nil {
			fatal(err)
		}
		// The mmap'd chain backs the index's arenas; keep it open for
		// the process lifetime (closed after the engine, below).
		snapFile = sf
		x, g, vertexOf, epochs = sf.Index, sf.Network, sf.VertexOf, sf.Epochs
		bootLoad = time.Since(t0)
		mode := "heap"
		if sf.Mapped() {
			mode = "mmap"
		}
		fmt.Printf("arena snapshot loaded in %v (%s, %d file(s), %d routes / %d transitions, epoch %d)\n",
			bootLoad.Round(time.Millisecond), mode, len(sf.Files()), x.NumRoutes(), x.NumTransitions(), epochs.Sum())
	} else {
		ds, dg, dv, err := loadData(*snapshot, *csvDir, *gtfsDir, *preset, *scale, *synN)
		if err != nil {
			fatal(err)
		}
		g, vertexOf = dg, dv
		fmt.Printf("indexing %d routes / %d transitions...\n", len(ds.Routes), len(ds.Transitions))
		t0 := time.Now()
		if x, err = index.Build(ds); err != nil {
			fatal(err)
		}
		fmt.Printf("indexes built in %v\n", time.Since(t0).Round(time.Millisecond))
	}

	opts := serve.Options{
		CacheSize:     *cacheSize,
		MaxBatch:      *maxBatch,
		Network:       g,
		VertexOf:      vertexOf,
		InitialEpochs: epochs,
	}
	if *slowlog > 0 {
		opts.SlowLog = obs.NewSlowLog(*slowlog, *slowlogCap)
	}
	engine := serve.New(x, opts)
	if snapFile != nil {
		// Close order matters: the engine must quiesce before the mmap
		// backing its arenas is released.
		defer snapFile.Close()
		// Let the first on-demand checkpoint extend the existing chain
		// instead of rewriting the base.
		engine.SeedCheckpoint(snapFile.CheckpointSeed())
	}
	defer engine.Close()
	if bootLoad > 0 {
		engine.ObserveSnapshotLoad(bootLoad)
	}

	if *saveIndex != "" {
		t0 := time.Now()
		n, err := engine.WriteSnapshotFile(*saveIndex)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("arena snapshot saved to %s (%d bytes in %v)\n",
			*saveIndex, n, time.Since(t0).Round(time.Millisecond))
	}

	var srvOpts []server.Option
	if *pprofOn {
		srvOpts = append(srvOpts, server.WithPprof())
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.New(engine, srvOpts...),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("\nshutting down...")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	fmt.Printf("serving on %s (planning %s)\n", *addr, enabled(g != nil))
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-done
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rknnt-serve:", err)
	os.Exit(1)
}

func enabled(b bool) string {
	if b {
		return "enabled"
	}
	return "disabled: no network"
}

// loadData resolves the configured data source into a dataset, an
// optional bus network and the stop-to-vertex translation table.
func loadData(snapshot, csvDir, gtfsDir, preset string, scale, synN int) (*model.Dataset, *graph.Graph, map[model.StopID]graph.VertexID, error) {
	switch {
	case snapshot != "":
		f, err := os.Open(snapshot)
		if err != nil {
			return nil, nil, nil, err
		}
		defer f.Close()
		ds, g, err := dataio.ReadSnapshot(f)
		if err != nil {
			return nil, nil, nil, err
		}
		if g == nil {
			// Snapshot stored without a network: serve with planning
			// disabled rather than crash.
			return ds, nil, nil, nil
		}
		// Snapshots come from the generator, where vertex i is stop i.
		return ds, g, identityVertices(g), nil

	case csvDir != "":
		routes, err := readCSV(csvDir+"/routes.csv", dataio.ReadRoutesCSV)
		if err != nil {
			return nil, nil, nil, err
		}
		transitions, err := readCSV(csvDir+"/transitions.csv", dataio.ReadTransitionsCSV)
		if err != nil {
			return nil, nil, nil, err
		}
		ds := &model.Dataset{Routes: routes, Transitions: transitions}
		g, vertexOf, err := graph.FromRoutes(routes)
		if err != nil {
			return nil, nil, nil, err
		}
		return ds, g, vertexOf, nil

	case gtfsDir != "":
		feed, err := gtfs.Load(os.DirFS(gtfsDir))
		if err != nil {
			return nil, nil, nil, err
		}
		ds := &model.Dataset{Routes: feed.Routes}
		g, vertexOf, err := graph.FromRoutes(feed.Routes)
		if err != nil {
			return nil, nil, nil, err
		}
		return ds, g, vertexOf, nil

	default:
		var cfg gen.Config
		switch preset {
		case "la":
			cfg = gen.LA(scale)
		case "nyc":
			cfg = gen.NYC(scale)
		case "syn":
			cfg = gen.Synthetic(scale, synN)
		default:
			return nil, nil, nil, fmt.Errorf("unknown preset %q (want la, nyc or syn)", preset)
		}
		fmt.Printf("generating %s city (scale 1/%d)...\n", preset, scale)
		city, err := gen.Generate(cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		return city.Dataset, city.Graph, identityVertices(city.Graph), nil
	}
}

func identityVertices(g *graph.Graph) map[model.StopID]graph.VertexID {
	vertexOf := make(map[model.StopID]graph.VertexID, g.NumVertices())
	for i := 0; i < g.NumVertices(); i++ {
		vertexOf[model.StopID(i)] = graph.VertexID(i)
	}
	return vertexOf
}

func readCSV[T any](path string, read func(r io.Reader) ([]T, error)) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return read(f)
}
