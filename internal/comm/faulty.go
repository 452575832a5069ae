package comm

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"parsssp/internal/rng"
)

// This file implements Faulty, the deterministic fault-injection wrapper
// used by the chaos tests. The paper's BSP structure assumes every rank
// reaches every collective — a guarantee Blue Gene/Q's MPI runtime gave
// and our stand-in transports do not. Faulty manufactures exactly the
// violations of that assumption a deployment sees (rank death, hangs,
// damaged payloads) at chosen collective indices, so tests can prove the
// stack fails fast — every surviving rank gets an error, nothing hangs,
// nothing panics — instead of verifying it by outage.

// ErrInjected marks every error Faulty manufactures, for errors.Is.
var ErrInjected = errors.New("comm: injected fault")

// FaultKind enumerates the failure modes Faulty injects.
type FaultKind int

const (
	// FaultError makes the collective return an error without touching
	// the wrapped transport: the model of a rank-local failure (a bug, an
	// OOM kill caught by a recover layer) between collectives. Peers are
	// NOT notified — propagating the failure is the caller's job (see
	// comm.Abort), which is exactly what the tests using FaultError prove.
	FaultError FaultKind = iota
	// FaultCrash closes the wrapped transport and returns an error: the
	// rank dies abruptly mid-collective. Peers observe transport death
	// (connection reset over TCP, group abort over memtransport).
	FaultCrash
	// FaultStall sleeps for Fault.Stall before running the collective,
	// modelling a hung rank. With a collective timeout configured, peers
	// time out and error; the stalled rank then finds its transport dead
	// when it resumes.
	FaultStall
	// FaultTruncate drops the final byte of every outgoing Exchange
	// payload (and the final element of an Allreduce vector), modelling a
	// frame cut short on the wire. Receivers must detect the damage and
	// error, not mis-decode.
	FaultTruncate
	// FaultCorrupt XORs every outgoing Exchange payload byte with 0xA5,
	// modelling in-flight corruption. On an Allreduce or Barrier, where
	// the int64 lanes carry no structure whose violation is detectable,
	// it degrades to FaultError.
	FaultCorrupt
)

// String returns the kind name.
func (k FaultKind) String() string {
	switch k {
	case FaultError:
		return "error"
	case FaultCrash:
		return "crash"
	case FaultStall:
		return "stall"
	case FaultTruncate:
		return "truncate"
	case FaultCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault schedules one injection.
type Fault struct {
	// Collective is the 0-based index, counted across Exchange,
	// AllreduceInt64 and Barrier calls on this endpoint, at which the
	// fault fires.
	Collective int
	// Kind is the failure mode.
	Kind FaultKind
	// Stall is the hang duration of a FaultStall.
	Stall time.Duration
}

// Faulty wraps a Transport and injects the scheduled faults. It is
// deterministic: the same schedule against the same collective sequence
// fires the same faults, so a chaos test that passes once passes always.
// Like the transports themselves, it is not safe for concurrent use.
type Faulty struct {
	T      Transport
	faults map[int]Fault
	calls  int
	// mangle scratch: damaged payloads are copied here, never mutated in
	// place — callers own their out buffers.
	scratch [][]byte
}

// NewFaulty wraps t with a fault schedule. Duplicate collective indices
// are rejected rather than silently last-wins.
func NewFaulty(t Transport, faults ...Fault) (*Faulty, error) {
	m := make(map[int]Fault, len(faults))
	for _, f := range faults {
		if f.Collective < 0 {
			return nil, fmt.Errorf("comm: fault at negative collective %d", f.Collective)
		}
		if _, dup := m[f.Collective]; dup {
			return nil, fmt.Errorf("comm: duplicate fault at collective %d", f.Collective)
		}
		m[f.Collective] = f
	}
	return &Faulty{T: t, faults: m}, nil
}

// FaultPlan derives a deterministic fault schedule from seed: n faults
// at distinct collective indices in [0, span), with kinds drawn from
// kinds (all kinds when empty) and the given stall duration. The same
// seed always yields the same plan, so a failing chaos seed is a
// reproducer, not a flake.
func FaultPlan(seed uint64, n, span int, stall time.Duration, kinds ...FaultKind) []Fault {
	if n > span {
		n = span
	}
	if len(kinds) == 0 {
		kinds = []FaultKind{FaultError, FaultCrash, FaultStall, FaultTruncate, FaultCorrupt}
	}
	r := rng.NewSplitMix64(seed)
	used := make(map[int]bool, n)
	plan := make([]Fault, 0, n)
	for len(plan) < n {
		at := int(r.Next() % uint64(span))
		if used[at] {
			continue
		}
		used[at] = true
		plan = append(plan, Fault{
			Collective: at,
			Kind:       kinds[int(r.Next()%uint64(len(kinds)))],
			Stall:      stall,
		})
	}
	sort.Slice(plan, func(i, j int) bool { return plan[i].Collective < plan[j].Collective })
	return plan
}

// Collectives returns the number of collectives issued so far, i.e. the
// index the next collective will have. Tests use it to size fault spans.
func (f *Faulty) Collectives() int { return f.calls }

// step consumes one collective index and returns its scheduled fault.
func (f *Faulty) step() (Fault, bool) {
	idx := f.calls
	f.calls++
	flt, ok := f.faults[idx]
	return flt, ok
}

// errAt builds the injected error for flt.
func (f *Faulty) errAt(flt Fault) error {
	return fmt.Errorf("%w: rank %d: %v at collective %d", ErrInjected, f.T.Rank(), flt.Kind, flt.Collective)
}

// mangleOut returns a damaged copy of out per kind (FaultTruncate or
// FaultCorrupt). Self-delivery is damaged too: a frame mangled on the
// wire is mangled for every consumer the test cares about, and keeping
// the self copy intact would let a single-rank machine dodge the fault.
func (f *Faulty) mangleOut(out [][]byte, kind FaultKind) [][]byte {
	if len(f.scratch) < len(out) {
		f.scratch = make([][]byte, len(out))
	}
	for i, b := range out {
		buf := append(f.scratch[i][:0], b...)
		switch kind {
		case FaultTruncate:
			if len(buf) > 0 {
				buf = buf[:len(buf)-1]
			}
		case FaultCorrupt:
			for j := range buf {
				buf[j] ^= 0xA5
			}
		}
		f.scratch[i] = buf
	}
	return f.scratch[:len(out)]
}

// Rank implements Transport.
func (f *Faulty) Rank() int { return f.T.Rank() }

// Size implements Transport.
func (f *Faulty) Size() int { return f.T.Size() }

// Exchange implements Transport, injecting any fault scheduled for this
// collective index.
func (f *Faulty) Exchange(out [][]byte) ([][]byte, error) {
	if flt, ok := f.step(); ok {
		switch flt.Kind {
		case FaultError:
			return nil, f.errAt(flt)
		case FaultCrash:
			return nil, errors.Join(f.errAt(flt), f.T.Close())
		case FaultStall:
			time.Sleep(flt.Stall)
		case FaultTruncate, FaultCorrupt:
			out = f.mangleOut(out, flt.Kind)
		}
	}
	return f.T.Exchange(out)
}

// AllreduceInt64 implements Transport. FaultTruncate drops the final
// vector element, which peers must reject as a length mismatch;
// FaultCorrupt degrades to FaultError (see its doc).
func (f *Faulty) AllreduceInt64(vals []int64, op ReduceOp) ([]int64, error) {
	if flt, ok := f.step(); ok {
		switch flt.Kind {
		case FaultError, FaultCorrupt:
			return nil, f.errAt(flt)
		case FaultCrash:
			return nil, errors.Join(f.errAt(flt), f.T.Close())
		case FaultStall:
			time.Sleep(flt.Stall)
		case FaultTruncate:
			if len(vals) > 0 {
				vals = append([]int64(nil), vals[:len(vals)-1]...)
			} else {
				return nil, f.errAt(flt)
			}
		}
	}
	return f.T.AllreduceInt64(vals, op)
}

// Barrier implements Transport. Payload faults degrade to FaultError: a
// barrier carries nothing to damage.
func (f *Faulty) Barrier() error {
	if flt, ok := f.step(); ok {
		switch flt.Kind {
		case FaultError, FaultTruncate, FaultCorrupt:
			return f.errAt(flt)
		case FaultCrash:
			return errors.Join(f.errAt(flt), f.T.Close())
		case FaultStall:
			time.Sleep(flt.Stall)
		}
	}
	return f.T.Barrier()
}

// SendBatch implements BatchSender, delegating without consuming a
// collective index: the fault schedule counts collectives only, so the
// same plan stays meaningful whether a run is BSP or async (async data
// batches vary in count run to run; the collectives do not).
func (f *Faulty) SendBatch(dest int, payload []byte) error {
	bs, ok := f.T.(BatchSender)
	if !ok {
		return ErrBatchUnsupported
	}
	return bs.SendBatch(dest, payload)
}

// RecvBatch implements BatchSender, delegating without consuming a
// collective index (see SendBatch).
func (f *Faulty) RecvBatch(wait time.Duration) (int, []byte, bool, error) {
	bs, ok := f.T.(BatchSender)
	if !ok {
		return 0, nil, false, ErrBatchUnsupported
	}
	return bs.RecvBatch(wait)
}

// SupportsBatch forwards the async-batch capability probe to the wrapped
// transport.
func (f *Faulty) SupportsBatch() bool { return SupportsBatch(f.T) }

// Close implements Transport.
func (f *Faulty) Close() error { return f.T.Close() }

// Abort implements Aborter, delegating to the wrapped transport.
func (f *Faulty) Abort(err error) { Abort(f.T, err) }
