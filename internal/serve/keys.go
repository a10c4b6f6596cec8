package serve

import (
	"encoding/binary"
	"math"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/geo"
)

// Pooled scratch for the hot-path key builders. Every key ends life as
// a string (map key), so that one allocation is inherent; the pool
// removes the intermediate []byte and EpochVec allocations that
// fmt.Sprintf / epochVec().appendBytes(nil) paid per query.
var keyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

// queryKey builds the cache key: options and the exact query geometry
// (float bits, so distinct queries never collide). The epoch vector is
// NOT part of the key — entries carry their vector and are repaired
// forward from the shard journals — but it is prepended for the
// in-flight dedup key (flightKey). Parallel is excluded: it cannot
// change the result.
//
// Layout: 8B flags, 8B TimeFrom, 8B TimeTo, then 16B per point.
func queryKey(query []geo.Point, opts core.Options) string {
	bp := keyBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	var flags uint64
	flags |= uint64(opts.Method) << 0
	flags |= uint64(opts.Semantics) << 8
	if opts.NoCrossover {
		flags |= 1 << 16
	}
	if opts.NoNList {
		flags |= 1 << 17
	}
	flags |= uint64(uint32(opts.K)) << 32
	buf = binary.LittleEndian.AppendUint64(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(opts.TimeFrom))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(opts.TimeTo))
	for _, p := range query {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
	}
	s := string(buf)
	*bp = buf
	keyBufPool.Put(bp)
	return s
}

// flightKey prepends the live epoch vector to a query key, so an
// in-flight dedup can never hand a caller a result computed over an
// older snapshot than it observed.
func (e *Engine) flightKey(key string) string {
	bp := keyBufPool.Get().(*[]byte)
	buf := e.appendEpochBytes((*bp)[:0])
	buf = append(buf, key...)
	s := string(buf)
	*bp = buf
	keyBufPool.Put(bp)
	return s
}

// planFlightKey is the planner precomputation's flight key:
// "plan/<k>/<method>/" plus the live epoch vector.
func (e *Engine) planFlightKey(k int, method core.Method) string {
	bp := keyBufPool.Get().(*[]byte)
	buf := append((*bp)[:0], "plan/"...)
	buf = strconv.AppendInt(buf, int64(k), 10)
	buf = append(buf, '/')
	buf = strconv.AppendInt(buf, int64(method), 10)
	buf = append(buf, '/')
	buf = e.appendEpochBytes(buf)
	s := string(buf)
	*bp = buf
	keyBufPool.Put(bp)
	return s
}
