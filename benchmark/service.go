package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/loadsvc"
	"repro/reactive/reactivehttp"
)

// The service phase drives internal/loadsvc.Service — all four primitives
// on one request path — with g closed-loop clients in one process, no
// sockets. One request in latencySampleEvery is timed; every request folds
// the client's most recent sampled latency into the service's FetchOp, so
// RecordLatency is on every request's path without a clock read on each.

const (
	latencySampleEvery = 64
	svcDeadline        = 200 * time.Microsecond

	// Synthetic service time in spin iterations: small enough that the
	// primitives are about half of a Get, large enough that a request
	// is not only synchronization.
	getWork     = 50
	putWork     = 100
	rebuildWork = 100 * loadsvc.TableKeys

	svcRebuild   = opAux
	flagDeadline = 1 << 8 // above the key's eight bits
	flagCanceled = 1 << 9
)

// genRequests draws one request stream per client: kind, key and the
// per-request context flags.
func genRequests(seed uint64, clients int, m svcMix) [][]uint32 {
	out := make([][]uint32, clients)
	for c := range out {
		r := derive(seed, "svc", c)
		s := make([]uint32, streamLen)
		for i := range s {
			kind := uint32(opRead)
			switch p := r.intn(10000); {
			case p < m.rebuildPer10k:
				kind = svcRebuild
			case p < m.rebuildPer10k+10*m.putPerMille:
				kind = opWrite
			}
			arg := uint32(r.intn(loadsvc.TableKeys))
			if kind == opRead && r.intn(1000) < m.deadlinePerMille {
				arg |= flagDeadline
			}
			if r.intn(1000) < m.cancelledPerMille {
				arg |= flagCanceled
			}
			s[i] = mkOp(kind, arg)
		}
		out[c] = s
	}
	return out
}

// svcClient is one client's private state.
type svcClient struct {
	samples   []int64 // sampled latencies of the current slice, ns
	lastLat   int64
	seq       uint64
	committed uint64 // Puts that returned nil
	degraded  uint64 // Gets served from the stale snapshot
	failed    uint64
	reqID     uint64
	_         [4]uint64
}

type svcPhase struct {
	svc     *loadsvc.Service
	streams [][]uint32
	clients []svcClient
	dead    context.Context // already cancelled
	total   uint64          // requests issued so far, all slices
}

func newSvcPhase(seed uint64, g int, m svcMix) *svcPhase {
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	return &svcPhase{
		svc:     loadsvc.NewService(),
		streams: genRequests(seed, g, m),
		clients: make([]svcClient, g),
		dead:    dead,
	}
}

// keyTag is what every value stored under key k keeps in its low 16 bits:
// the initial table holds k*k, Put writes k*k + seq<<16, and Rebuild writes
// k*k + gen with gen a multiple of 1<<16 — so any Get, live or stale, can
// be checked without knowing which write it observed.
func keyTag(k uint64) uint64 { return k * k }

// request issues one request and classifies its outcome. A pre-cancelled
// request that returns ctx.Err() is correct; anything else unexpected is a
// failure.
func (p *svcPhase) request(c *svcClient, op uint32) {
	arg := opArg(op)
	key := uint64(arg & (loadsvc.TableKeys - 1))
	ctx, cancel := context.Background(), context.CancelFunc(nil)
	switch {
	case arg&flagCanceled != 0:
		ctx = p.dead
	case arg&flagDeadline != 0:
		ctx, cancel = context.WithTimeout(ctx, svcDeadline)
	}
	var err error
	switch opKind(op) {
	case opRead:
		var res loadsvc.GetResult
		res, err = p.svc.Get(ctx, key, getWork)
		if err == nil {
			if res.Val&0xffff != keyTag(key) {
				c.failed++
			}
			if res.Stale {
				c.degraded++
			}
		}
	case opWrite:
		c.seq++
		err = p.svc.Put(ctx, key, keyTag(key)+c.seq<<16, putWork)
		if err == nil {
			c.committed++
		}
	default:
		c.seq++
		err = p.svc.Rebuild(ctx, c.seq<<16, rebuildWork)
	}
	if cancel != nil {
		cancel()
	}
	if ctx == p.dead {
		if !errors.Is(err, context.Canceled) {
			c.failed++
		}
	} else if err != nil {
		c.failed++
	}
}

// work is one client's closed loop for one slice.
func (p *svcPhase) work(id int, deadline time.Time, wt *workerTrace) uint64 {
	c := &p.clients[id]
	c.samples = c.samples[:0]
	s := p.streams[id]
	var n uint64
	for pos := 0; ; pos = (pos + 1) % len(s) {
		op := s[pos]
		switch {
		case n%latencySampleEvery != 0:
			p.request(c, op)
			p.svc.RecordLatency(c.lastLat)
		case wt == nil:
			t0 := time.Now()
			p.request(c, op)
			c.lastLat = int64(time.Since(t0))
			c.samples = append(c.samples, c.lastLat)
			p.svc.RecordLatency(c.lastLat)
			if !t0.Before(deadline) {
				return n + 1
			}
		default:
			// Traced and sampled: the same request, with a span for it
			// and one for each call it makes into the service.
			c.reqID++
			req := uint64(id)<<40 | c.reqID
			t0 := time.Now()
			p.request(c, op)
			t1 := time.Now()
			c.lastLat = int64(t1.Sub(t0))
			c.samples = append(c.samples, c.lastLat)
			p.svc.RecordLatency(c.lastLat)
			t2 := time.Now()
			parent := wt.add("svc.request", t0, t2, -1, req)
			wt.add(svcCallName[opKind(op)], t0, t1, parent, req)
			wt.add("svc.RecordLatency", t1, t2, parent, req)
			if !t0.Before(deadline) {
				return n + 1
			}
		}
		n++
	}
}

// warm issues every client's whole stream once, untimed and unsampled.
func (p *svcPhase) warm() {
	n, _ := runSlice(len(p.clients), 0, nil, func(id int, _ time.Time, _ *workerTrace) uint64 {
		c := &p.clients[id]
		for _, op := range p.streams[id] {
			p.request(c, op)
			p.svc.RecordLatency(c.lastLat)
		}
		return streamLen
	})
	p.total += n
}

var svcCallName = [...]string{opRead: "svc.Get", opWrite: "svc.Put", svcRebuild: "svc.Rebuild"}

// svcSlice is what one slice measured.
type svcSlice struct {
	reqPerS  float64
	p50, p99 float64
	samples  int
}

func (p *svcPhase) slice(d time.Duration, tr *tracer, tl *tally) svcSlice {
	n, wall := runSlice(len(p.clients), d, tr, p.work)
	p.total += n
	tl.attempted += n
	var lat []float64
	for i := range p.clients {
		for _, v := range p.clients[i].samples {
			lat = append(lat, float64(v))
		}
	}
	return svcSlice{
		reqPerS: float64(n) / wall.Seconds(),
		p50:     quantile(lat, 0.50),
		p99:     quantile(lat, 0.99),
		samples: len(lat),
	}
}

// check verifies, at quiescence, that the service accounted for every
// request and committed exactly the Puts that reported success. It runs
// once, after the phase's last slice: Hits reconciles the hit counter, and
// a reconciling read is a detection event for it.
func (p *svcPhase) check(tl *tally) {
	var committed uint64
	for i := range p.clients {
		c := &p.clients[i]
		committed += c.committed
		tl.failed += c.failed
		c.failed = 0
	}
	if h := p.svc.Hits(); uint64(h) != p.total {
		tl.fail(fmt.Errorf("Service.Hits() = %d, want %d requests", h, p.total))
	}
	if j := p.svc.JournalLen(); uint64(j) != committed {
		tl.fail(fmt.Errorf("Service.JournalLen() = %d, want %d committed puts", j, committed))
	}
}

// svcResult is the phase's outcome over its slices.
type svcResult struct {
	ReqPerS  summary               `json:"req_per_s"`
	P50      summary               `json:"p50_ns"`
	P99      summary               `json:"p99_ns"`
	Samples  int                   `json:"latency_samples_per_slice"`
	Degraded float64               `json:"degraded_ratio"`
	Snapshot reactivehttp.Snapshot `json:"-"`
}

func summarizeSvc(p *svcPhase, slices []svcSlice) svcResult {
	var rps, p50, p99, ns []float64
	for _, s := range slices {
		rps = append(rps, s.reqPerS)
		p50 = append(p50, s.p50)
		p99 = append(p99, s.p99)
		ns = append(ns, float64(s.samples))
	}
	var degraded uint64
	for i := range p.clients {
		degraded += p.clients[i].degraded
	}
	r := svcResult{
		ReqPerS:  summarize(rps),
		P50:      summarize(p50),
		P99:      summarize(p99),
		Samples:  int(median(ns)),
		Snapshot: p.svc.Registry().Snapshot(),
	}
	if p.total > 0 {
		r.Degraded = float64(degraded) / float64(p.total)
	}
	return r
}
