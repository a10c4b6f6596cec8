package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"syscall"
	"time"

	"repro/internal/geo"
)

// client is one keep-alive connection to the server, driven by the
// goroutine that calls do: one write and one blocking read per request.
// net/http's client would hand every request through two more goroutines
// of its own, and their wake-ups cost as much CPU as the server spends on
// a cached answer.
type client struct {
	conn net.Conn
	addr string // where conn leads; a restarted server listens elsewhere
	br   *bufio.Reader
	out  bytes.Buffer
	buf  bytes.Buffer
}

func newClient() *client { return &client{} }

// opHeader carries the op identifier of a traced request, so the timing
// middleware can key its server.handle span to the client span.
const opHeader = "X-Bench-Op"

const requestTimeout = 60 * time.Second

// do sends one request and returns the status and the body; the body is
// valid until the next call. Any error drops the connection, and the next
// call dials again.
func (c *client) do(addr string, r request, opID string) (status int, body []byte, err error) {
	if c.conn == nil || c.addr != addr {
		c.close()
		if c.conn, err = net.DialTimeout("tcp", addr, requestTimeout); err != nil {
			c.conn = nil
			return 0, nil, err
		}
		c.addr, c.br = addr, bufio.NewReader(c.conn)
	}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	c.out.Reset()
	fmt.Fprintf(&c.out, "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n", r.method, r.path, addr, len(r.body))
	if r.body != nil {
		c.out.WriteString("Content-Type: application/json\r\n")
	}
	if opID != "" {
		fmt.Fprintf(&c.out, "%s: %s\r\n", opHeader, opID)
	}
	c.out.WriteString("\r\n")
	c.out.Write(r.body)
	if err = c.conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err = c.conn.Write(c.out.Bytes()); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// Response shapes, as far as the benchmark reads them.
type rknntResp struct {
	Transitions []int32 `json:"transitions"`
	Cached      bool    `json:"cached"`
	Repaired    bool    `json:"repaired"`
}

type batchResp struct {
	Results []rknntResp `json:"results"`
}

type addResp struct {
	Added  int `json:"added"`
	Errors []struct {
		ID    int32  `json:"id"`
		Error string `json:"error"`
	} `json:"errors"`
}

type deleteResp struct {
	Removed int     `json:"removed"`
	Missing []int32 `json:"missing"`
}

type expireResp struct {
	Removed int `json:"removed"`
}

type planResp struct {
	Feasible    bool    `json:"feasible"`
	PathStops   []int32 `json:"path_stops"`
	Dist        float64 `json:"dist"`
	Transitions []int32 `json:"transitions"`
	Count       int     `json:"count"`
	Truncated   bool    `json:"truncated"`
}

type healthResp struct {
	Routes      int `json:"routes"`
	Transitions int `json:"transitions"`
	EpochVector struct {
		Shards []uint64 `json:"shards"`
	} `json:"epoch_vector"`
}

func (c *client) healthz(addr string) (healthResp, error) {
	var h healthResp
	status, body, err := c.do(addr, request{method: "GET", path: "/healthz"}, "")
	if err != nil {
		return h, err
	}
	if status != http.StatusOK {
		return h, fmt.Errorf("healthz: status %d", status)
	}
	return h, json.Unmarshal(body, &h)
}

// answer is one RkNNT answer kept for the oracle.
type answer struct {
	query []geo.Point
	ids   []int32
}

// logEntry is one write or plan in the order its connection sent it; the
// verifier replays the log to rebuild the live set at any point.
type logEntry struct {
	op    op
	acked bool
	plan  *planResp
}

// sample is one measured request: when it was due (or, on a closed
// loop, sent) and when its response had been read, in nanoseconds from
// the start of the measured window.
type sample struct {
	kind      opKind
	fresh     bool // opPlan: first plan after a write
	units     int  // read ops it carried: queries or plans
	due, done int64
}

// connResult is what one connection observed.
type connResult struct {
	samples []sample // requests due inside the measured window

	attempted, failed int
	failures          []string

	hits        int // measured answers flagged cached and not repaired
	repaired    int
	flagged     int // measured answers, the denominator of the ratios
	answers     int // RkNNT answers seen, warm-up included: drives every-n-th sampling
	slots       int // open loop: scheduled sends
	late        int // ... of which left >1 ms after they could have
	sampleEvery int // keep every n-th RkNNT answer for the oracle; 0 = none
	sampled     []answer
	log         []logEntry
}

func (r *connResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// loop is the schedule one connection follows.
type loop struct {
	addr         string
	snapshotPath string
	start        time.Time     // slot 0 is due here
	measureFrom  time.Time     // requests due earlier are warm-up
	end          time.Time     // no request is due later
	period       time.Duration // open loop slot length; 0 = closed loop
}

// run drives one connection until the stream ends or the schedule does.
func (l *loop) run(c *client, next func() (op, bool), res *connResult) {
	prevDone := l.start
	for slot := 0; ; {
		o, ok := next()
		if !ok {
			return
		}
		due := time.Now()
		if l.period > 0 && !o.ride {
			due = l.start.Add(time.Duration(slot) * l.period)
			slot++
		}
		if !l.end.IsZero() && !due.Before(l.end) {
			return
		}
		sleepUntil(due)
		req := o.encode(l.snapshotPath)
		sent := time.Now()
		status, body, err := c.do(l.addr, req, "")
		done := time.Now()

		measured := !due.Before(l.measureFrom)
		if l.period > 0 && !o.ride && measured {
			res.slots++
			ready := due
			if prevDone.After(ready) {
				ready = prevDone // the connection was still busy: that wait is latency, not generator lag
			}
			if sent.Sub(ready) > time.Millisecond {
				res.late++
			}
		}
		prevDone = done
		res.attempted++
		if measured {
			units := 0
			switch o.kind {
			case opRkNNT, opPlan:
				units = 1
			case opBatch:
				units = len(o.queries)
			}
			res.samples = append(res.samples, sample{o.kind, o.fresh, units,
				due.Sub(l.measureFrom).Nanoseconds(), done.Sub(l.measureFrom).Nanoseconds()})
		}
		res.observe(&o, status, body, err, measured)
	}
}

// observe checks what can be checked on the spot and keeps what the
// oracle needs later. Failures outside the measured window still count:
// a wrong answer is wrong whenever it is given.
func (res *connResult) observe(o *op, status int, body []byte, err error, measured bool) {
	if err != nil {
		res.fail("%s: transport: %v", o.kind, err)
		return
	}
	if status != http.StatusOK {
		res.fail("%s: status %d: %s", o.kind, status, bytes.TrimSpace(body))
		return
	}
	decode := func(v any) bool {
		if err := json.Unmarshal(body, v); err != nil {
			res.fail("%s: bad response JSON: %v", o.kind, err)
			return false
		}
		return true
	}
	switch o.kind {
	case opRkNNT:
		hit := bytes.Contains(body, []byte(`"cached":true`))
		rep := bytes.Contains(body, []byte(`"repaired":true`))
		if measured {
			res.flagged++
			if rep {
				res.repaired++
			} else if hit {
				res.hits++
			}
		}
		if res.sampleEvery > 0 && res.answers%res.sampleEvery == 0 {
			var r rknntResp
			if decode(&r) {
				res.sampled = append(res.sampled, answer{o.queries[0], r.Transitions})
			}
		}
		res.answers++
	case opBatch:
		if measured {
			res.flagged += len(o.queries)
			res.hits += bytes.Count(body, []byte(`"cached":true`))
		}
		first := res.answers
		res.answers += len(o.queries)
		if n := res.sampleEvery; n > 0 && (first+n-1)/n*n < res.answers {
			i := (first + n - 1) / n * n
			var r batchResp
			if decode(&r) {
				if len(r.Results) != len(o.queries) {
					res.fail("batch: %d results for %d queries", len(r.Results), len(o.queries))
					return
				}
				for ; i < res.answers; i += n {
					res.sampled = append(res.sampled, answer{o.queries[i-first], r.Results[i-first].Transitions})
				}
			}
		}
	case opAdd:
		var r addResp
		ok := decode(&r)
		if ok && (r.Added != len(o.adds) || len(r.Errors) > 0) {
			res.fail("add: %d of %d added, errors %v", r.Added, len(o.adds), r.Errors)
			ok = false
		}
		res.log = append(res.log, logEntry{op: *o, acked: ok})
	case opDelete:
		var r deleteResp
		ok := decode(&r)
		if ok && r.Removed != len(o.ids) {
			res.fail("delete: %d of %d removed, missing %v", r.Removed, len(o.ids), r.Missing)
			ok = false
		}
		res.log = append(res.log, logEntry{op: *o, acked: ok})
	case opExpire:
		var r expireResp
		ok := decode(&r)
		if ok && r.Removed != o.expect {
			res.fail("expire before %d: removed %d, model says %d", o.cutoff, r.Removed, o.expect)
			ok = false
		}
		res.log = append(res.log, logEntry{op: *o, acked: ok})
	case opSnapshot:
		res.log = append(res.log, logEntry{op: *o, acked: true})
	case opPlan:
		var r planResp
		if decode(&r) {
			res.log = append(res.log, logEntry{op: *o, acked: true, plan: &r})
		}
	}
}

// endless adapts a stream to loop.run.
func endless(s stream) func() (op, bool) {
	return func() (op, bool) { return s(), true }
}

// fromSlice adapts a fixed op list to loop.run.
func fromSlice(ops []op) func() (op, bool) {
	return func() (op, bool) {
		if len(ops) == 0 {
			return op{}, false
		}
		o := ops[0]
		ops = ops[1:]
		return o, true
	}
}

// sleepUntil blocks the calling thread until t. time.Sleep parks in the
// netpoller, whose millisecond timeout granularity made the open loop
// send a median 0.6 ms late; nanosleep wakes within tens of microseconds
// and burns no CPU the server could use.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the remainder
	}
}
