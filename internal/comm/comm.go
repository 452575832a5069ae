// Package comm defines the message-passing substrate that stands in for
// the MPI/SPI communication layer of the paper's Blue Gene/Q
// implementation.
//
// The SSSP engine is written against the Transport interface, which
// provides exactly the collectives the paper's algorithm needs:
//
//   - Exchange — the per-superstep all-to-all personalized exchange
//     (MPI_Alltoallv): relaxations, pull requests and pull responses all
//     travel through it.
//   - AllreduceInt64 — the termination checks, next-bucket computation and
//     the push/pull cost aggregation.
//   - Barrier — bulk-synchronous phase boundaries.
//
// Two implementations exist: memtransport (logical ranks inside one
// process, used for all benchmarks) and tcptransport (a hand-rolled
// length-prefixed RPC over TCP, letting separate OS processes form a real
// distributed machine). Both are deterministic given deterministic inputs.
package comm

import (
	"errors"
	"fmt"
	"time"
)

// ReduceOp selects the elementwise reduction applied by AllreduceInt64.
type ReduceOp int

const (
	// Sum adds the contributions of all ranks.
	Sum ReduceOp = iota
	// Min takes the elementwise minimum.
	Min
	// Max takes the elementwise maximum.
	Max
)

// String returns the op name.
func (op ReduceOp) String() string {
	switch op {
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("ReduceOp(%d)", int(op))
	}
}

// Apply reduces b into a elementwise and returns a. The op dispatch is
// hoisted out of the element loop: Apply sits on the allreduce path of
// every bulk-synchronous phase, and a per-element branch there is pure
// overhead.
func (op ReduceOp) Apply(a, b []int64) []int64 {
	switch op {
	case Sum:
		for i := range a {
			a[i] += b[i]
		}
	case Min:
		for i := range a {
			if b[i] < a[i] {
				a[i] = b[i]
			}
		}
	case Max:
		for i := range a {
			if b[i] > a[i] {
				a[i] = b[i]
			}
		}
	}
	return a
}

// Transport is one rank's endpoint of a P-rank message-passing machine.
// All methods with collective semantics (Exchange, AllreduceInt64,
// Barrier) must be called by every rank in the same order; mixing orders
// deadlocks, exactly as in MPI.
type Transport interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks.
	Size() int
	// Exchange sends out[i] to rank i (out[Rank()] is delivered locally)
	// and returns in, where in[i] is the buffer sent by rank i to this
	// rank in the same collective call. nil and empty buffers are allowed.
	// The returned buffers are owned by the caller until the next call.
	Exchange(out [][]byte) (in [][]byte, err error)
	// AllreduceInt64 reduces vals elementwise across all ranks with op and
	// returns the result (same on every rank).
	AllreduceInt64(vals []int64, op ReduceOp) ([]int64, error)
	// Barrier blocks until every rank has entered it.
	Barrier() error
	// Close releases resources. The transport must not be used afterwards.
	Close() error
}

// ErrAborted marks errors produced by collectives that failed because
// the transport was aborted (by Abort, or by a peer's endpoint closing)
// rather than by this rank's own fault. Error-collection code uses it to
// tell the root cause of a machine-wide failure from its propagation:
// the rank that failed returns its own error, its peers return
// ErrAborted-wrapped ones.
var ErrAborted = errors.New("comm: transport aborted")

// Aborter is an optional Transport extension for transports that can
// fail fast: Abort(err) poisons the transport so that every collective
// blocked on it — on any rank it can reach — and every subsequent
// collective returns an error wrapping ErrAborted and err, without
// waiting for peers that will never arrive. Abort is safe to call
// concurrently with collectives and more than once (the first cause
// wins). Unlike Close, Abort carries the cause to the ranks it unblocks.
type Aborter interface {
	Abort(err error)
}

// Abort fail-fasts t with cause err: transports (or wrappers) that
// implement Aborter propagate the cause; for the rest Close is the only
// available abort signal — it unblocks local collectives and makes
// remote peers observe connection death. Callers whose rank abandons the
// lockstep collective sequence mid-run (an engine error between
// collectives) must call Abort, or peers deadlock waiting at a
// collective this rank will never reach.
func Abort(t Transport, err error) {
	if a, ok := t.(Aborter); ok {
		a.Abort(err)
		return
	}
	// Close here is a best-effort unblock on an already-failing path; its
	// error has nowhere useful to go — the abort cause err is what callers
	// report.
	_ = t.Close() //parssspvet:allow transporterr -- abort fallback: the abort cause, not the close error, is reported
}

// ErrBatchUnsupported is returned by BatchSender wrappers whose wrapped
// transport does not implement asynchronous batches. Engines select the
// async execution path only after SupportsBatch says the whole wrapper
// chain can carry it, so hitting this error indicates a wiring bug.
var ErrBatchUnsupported = errors.New("comm: transport does not support async batches")

// BatchSender is an optional Transport extension for the asynchronous
// execution mode: point-to-point, non-collective batch delivery. Unlike
// the collectives, SendBatch and RecvBatch impose no ordering discipline
// across ranks — any rank may send to any rank at any time, and batches
// from one sender arrive in send order but interleave arbitrarily with
// other senders'.
//
// SendBatch must not block on the receiver (fire-and-forget; the payload
// is copied before the call returns, so the caller may reuse it
// immediately). RecvBatch returns one pending batch if any: with wait=0
// it polls and returns ok=false when the queue is empty; with wait>0 it
// blocks up to wait for a batch to arrive. A transport abort (Abort, a
// peer's death, Close) fails both with an error wrapping ErrAborted, so
// an async receive loop can never outlive the machine it is part of.
// The returned payload is owned by the receiver.
//
// The same endpoint may be used for collectives and batches concurrently:
// the asynchronous termination-detection protocol settles over
// AllreduceInt64 while data batches are still in flight.
type BatchSender interface {
	SendBatch(dest int, payload []byte) error
	RecvBatch(wait time.Duration) (src int, payload []byte, ok bool, err error)
}

// batchProber lets wrappers report whether their wrapped chain supports
// asynchronous batches (the wrapper itself always implements BatchSender,
// delegating or failing with ErrBatchUnsupported at call time).
type batchProber interface {
	SupportsBatch() bool
}

// SupportsBatch reports whether t can carry asynchronous batches:
// wrappers forward the probe to the transport they wrap, bare transports
// answer for themselves.
func SupportsBatch(t Transport) bool {
	if p, ok := t.(batchProber); ok {
		return p.SupportsBatch()
	}
	_, ok := t.(BatchSender)
	return ok
}

// GatherExchanger is an optional Transport extension: a gathered
// (vectored) Exchange that takes each destination's payload as a list of
// segments instead of one contiguous buffer. out[i] is the segment list
// for rank i; the logical payload is the segments' concatenation, and
// in[i] is delivered contiguous exactly as with Exchange. Transports that
// implement it consume a caller's segments directly, with no sender-side
// concatenation copy. Segment slices are owned by the caller again as
// soon as the call returns; the same collective-ordering discipline as
// Exchange applies. memtransport and tcptransport implement it; the
// engine encodes one contiguous batch per destination and does not call
// it.
type GatherExchanger interface {
	ExchangeV(out [][][]byte) (in [][]byte, err error)
}

// TrafficStats accumulates wire-level counters for a transport.
type TrafficStats struct {
	// ExchangeCalls is the number of Exchange collectives.
	ExchangeCalls int64
	// BytesSent counts payload bytes this rank sent to other ranks
	// (excluding the local self-delivery).
	BytesSent int64
	// BytesReceived counts payload bytes received from other ranks.
	BytesReceived int64
	// MessagesSent counts non-empty buffers sent to other ranks.
	MessagesSent int64
	// RecordsSent counts application-level records sent to other ranks.
	// The byte counters depend on the wire encoding; the record counters
	// do not, so the paper's communication-volume metric stays defined in
	// records whatever codec is on the wire. They are maintained by the
	// record layer (the engine), not by the transport wrapper, which
	// cannot see record boundaries. The engine counts relax records after
	// it has combined a batch's duplicates, so a relaxation the sender
	// merged into another is not counted.
	RecordsSent int64
	// RecordsReceived counts application-level records received from
	// other ranks, as the sender counted them (after combining). Sender
	// and receiver count the same batch, so the async termination
	// probe's sums of the two still balance.
	RecordsReceived int64
	// AllreduceCalls counts AllreduceInt64 collectives.
	AllreduceCalls int64
	// BarrierCalls counts Barrier collectives.
	BarrierCalls int64
}

// Counting wraps a Transport and accumulates TrafficStats. It is not safe
// for concurrent use by multiple goroutines, matching the underlying
// collectives' calling discipline (one caller per rank).
type Counting struct {
	T     Transport
	Stats TrafficStats
}

// NewCounting returns a counting wrapper around t.
func NewCounting(t Transport) *Counting { return &Counting{T: t} }

// Rank implements Transport.
func (c *Counting) Rank() int { return c.T.Rank() }

// Size implements Transport.
func (c *Counting) Size() int { return c.T.Size() }

// Exchange implements Transport, counting payload traffic.
func (c *Counting) Exchange(out [][]byte) ([][]byte, error) {
	c.Stats.ExchangeCalls++
	me := c.T.Rank()
	for i, b := range out {
		if i == me || len(b) == 0 {
			continue
		}
		c.Stats.BytesSent += int64(len(b))
		c.Stats.MessagesSent++
	}
	in, err := c.T.Exchange(out)
	if err != nil {
		return nil, err
	}
	for i, b := range in {
		if i == me {
			continue
		}
		c.Stats.BytesReceived += int64(len(b))
	}
	return in, nil
}

// SendBatch implements BatchSender, counting payload traffic.
func (c *Counting) SendBatch(dest int, payload []byte) error {
	bs, ok := c.T.(BatchSender)
	if !ok {
		return ErrBatchUnsupported
	}
	if dest != c.T.Rank() && len(payload) > 0 {
		c.Stats.BytesSent += int64(len(payload))
		c.Stats.MessagesSent++
	}
	return bs.SendBatch(dest, payload)
}

// RecvBatch implements BatchSender, counting payload traffic.
func (c *Counting) RecvBatch(wait time.Duration) (int, []byte, bool, error) {
	bs, ok := c.T.(BatchSender)
	if !ok {
		return 0, nil, false, ErrBatchUnsupported
	}
	src, payload, ok, err := bs.RecvBatch(wait)
	if ok && src != c.T.Rank() {
		c.Stats.BytesReceived += int64(len(payload))
	}
	return src, payload, ok, err
}

// SupportsBatch forwards the async-batch capability probe to the wrapped
// transport.
func (c *Counting) SupportsBatch() bool { return SupportsBatch(c.T) }

// AllreduceInt64 implements Transport.
func (c *Counting) AllreduceInt64(vals []int64, op ReduceOp) ([]int64, error) {
	c.Stats.AllreduceCalls++
	return c.T.AllreduceInt64(vals, op)
}

// Barrier implements Transport.
func (c *Counting) Barrier() error {
	c.Stats.BarrierCalls++
	return c.T.Barrier()
}

// Close implements Transport.
func (c *Counting) Close() error { return c.T.Close() }

// Abort implements Aborter, delegating to the wrapped transport.
func (c *Counting) Abort(err error) { Abort(c.T, err) }
