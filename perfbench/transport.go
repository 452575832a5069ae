package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"parsssp/internal/comm"
)

// Indices of the waits a timedTransport measures for one rank: the
// nanoseconds spent inside each kind of call. Call, byte and message
// counts are not kept here: the engine counts them itself and returns
// them in sssp.Stats.Traffic.
const (
	exchangeNs = iota
	allreduceNs
	recvBatchNs
	numCounters
)

// commCounters is one rank's transport waits as seen from outside the
// engine. The counters are atomic because the async execution mode may
// drive one endpoint's collectives and batches from different
// goroutines.
type commCounters [numCounters]atomic.Int64

// commSnapshot is a plain copy of commCounters, for per-operation deltas.
type commSnapshot [numCounters]int64

// snapshotAll returns the counters summed over ranks.
func snapshotAll(cs []*commCounters) commSnapshot {
	var s commSnapshot
	for _, c := range cs {
		for i := range c {
			s[i] += c[i].Load()
		}
	}
	return s
}

// sub returns s - o counter by counter.
func (s commSnapshot) sub(o commSnapshot) commSnapshot {
	for i := range s {
		s[i] -= o[i]
	}
	return s
}

// endpoint is a transport with every optional comm extension, as a
// memtransport endpoint has.
type endpoint interface {
	comm.Transport
	comm.GatherExchanger
	comm.BatchSender
	comm.Aborter
}

// timedTransport is the traced run's transport wrapper: it times the
// calls one rank makes into the comm layer and forwards every optional
// extension of the wrapped endpoint, so the engine takes the same path
// traced as untraced — the gathered ExchangeV instead of
// concatenate-then-Exchange, async batches instead of refusing
// ExecAsync, and Abort's cause propagation.
type timedTransport struct {
	t endpoint
	c *commCounters
}

var _ endpoint = (*timedTransport)(nil)

func (w *timedTransport) Rank() int { return w.t.Rank() }

func (w *timedTransport) Size() int { return w.t.Size() }

func (w *timedTransport) Exchange(out [][]byte) ([][]byte, error) {
	defer w.time(exchangeNs, time.Now())
	return w.t.Exchange(out)
}

func (w *timedTransport) ExchangeV(out [][][]byte) ([][]byte, error) {
	defer w.time(exchangeNs, time.Now())
	return w.t.ExchangeV(out)
}

func (w *timedTransport) AllreduceInt64(vals []int64, op comm.ReduceOp) ([]int64, error) {
	defer w.time(allreduceNs, time.Now())
	return w.t.AllreduceInt64(vals, op)
}

func (w *timedTransport) Barrier() error { return w.t.Barrier() }

func (w *timedTransport) SendBatch(dest int, payload []byte) error {
	return w.t.SendBatch(dest, payload)
}

func (w *timedTransport) RecvBatch(wait time.Duration) (int, []byte, bool, error) {
	defer w.time(recvBatchNs, time.Now())
	return w.t.RecvBatch(wait)
}

// SupportsBatch forwards the async capability probe (comm.SupportsBatch),
// so ExecAsync is accepted exactly when the bare endpoint would accept it.
func (w *timedTransport) SupportsBatch() bool { return comm.SupportsBatch(w.t) }

func (w *timedTransport) Abort(err error) { w.t.Abort(err) }

func (w *timedTransport) Close() error { return w.t.Close() }

// time adds the time since t0 to counter i.
func (w *timedTransport) time(i int, t0 time.Time) { w.c[i].Add(int64(time.Since(t0))) }

// wrapTransports wraps each endpoint in a timedTransport and returns the
// wrapped endpoints with their per-rank counters.
func wrapTransports(eps []comm.Transport) ([]comm.Transport, []*commCounters, error) {
	out := make([]comm.Transport, len(eps))
	cs := make([]*commCounters, len(eps))
	for i, t := range eps {
		ep, ok := t.(endpoint)
		if !ok {
			return nil, nil, fmt.Errorf("perfbench: transport %T lacks a comm extension", t)
		}
		cs[i] = &commCounters{}
		out[i] = &timedTransport{t: ep, c: cs[i]}
	}
	return out, cs, nil
}
