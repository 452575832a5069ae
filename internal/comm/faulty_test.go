package comm

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"
)

// closableFake extends fakeTransport with Close tracking, so crash
// injection can be observed.
type closableFake struct {
	fakeTransport
	closed bool
}

func (c *closableFake) Close() error {
	c.closed = true
	return nil
}

func TestNewFaultyValidation(t *testing.T) {
	fake := &fakeTransport{rank: 0, size: 1}
	if _, err := NewFaulty(fake, Fault{Collective: -1}); err == nil {
		t.Error("negative collective index accepted")
	}
	if _, err := NewFaulty(fake, Fault{Collective: 3}, Fault{Collective: 3}); err == nil {
		t.Error("duplicate collective index accepted")
	}
	f, err := NewFaulty(fake, Fault{Collective: 0}, Fault{Collective: 2})
	if err != nil {
		t.Fatal(err)
	}
	if f.Rank() != 0 || f.Size() != 1 {
		t.Error("Rank/Size not forwarded")
	}
}

func TestFaultErrorFiresAtIndex(t *testing.T) {
	fake := &fakeTransport{rank: 0, size: 1, inject: [][]byte{nil}}
	f, err := NewFaulty(fake, Fault{Collective: 1, Kind: FaultError})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Exchange(make([][]byte, 1)); err != nil {
		t.Fatalf("collective 0 faulted: %v", err)
	}
	_, err = f.Exchange(make([][]byte, 1))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("collective 1 error = %v, want ErrInjected", err)
	}
	if _, err := f.Exchange(make([][]byte, 1)); err != nil {
		t.Fatalf("collective 2 faulted: %v", err)
	}
	if f.Collectives() != 3 {
		t.Errorf("Collectives() = %d, want 3", f.Collectives())
	}
}

func TestFaultCrashClosesTransport(t *testing.T) {
	fake := &closableFake{fakeTransport: fakeTransport{rank: 0, size: 1}}
	f, err := NewFaulty(fake, Fault{Collective: 0, Kind: FaultCrash})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Barrier(); !errors.Is(err, ErrInjected) {
		t.Fatalf("crash error = %v, want ErrInjected", err)
	}
	if !fake.closed {
		t.Error("FaultCrash did not close the wrapped transport")
	}
}

func TestFaultStallDelays(t *testing.T) {
	fake := &fakeTransport{rank: 0, size: 1}
	const stall = 30 * time.Millisecond
	f, err := NewFaulty(fake, Fault{Collective: 0, Kind: FaultStall, Stall: stall})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := f.Barrier(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < stall {
		t.Errorf("stalled barrier returned after %v, want >= %v", elapsed, stall)
	}
}

func TestFaultTruncateExchange(t *testing.T) {
	fake := &fakeTransport{rank: 0, size: 2, inject: make([][]byte, 2)}
	f, err := NewFaulty(fake, Fault{Collective: 0, Kind: FaultTruncate})
	if err != nil {
		t.Fatal(err)
	}
	orig := []byte{1, 2, 3, 4}
	if _, err := f.Exchange([][]byte{append([]byte(nil), orig...), orig}); err != nil {
		t.Fatal(err)
	}
	if got := fake.lastOut[1]; !bytes.Equal(got, orig[:3]) {
		t.Errorf("truncated payload = %v, want %v", got, orig[:3])
	}
	if !bytes.Equal(orig, []byte{1, 2, 3, 4}) {
		t.Error("caller's buffer was mutated in place")
	}
}

func TestFaultCorruptExchange(t *testing.T) {
	fake := &fakeTransport{rank: 0, size: 2, inject: make([][]byte, 2)}
	f, err := NewFaulty(fake, Fault{Collective: 0, Kind: FaultCorrupt})
	if err != nil {
		t.Fatal(err)
	}
	orig := []byte{1, 2, 3}
	if _, err := f.Exchange([][]byte{nil, orig}); err != nil {
		t.Fatal(err)
	}
	want := []byte{1 ^ 0xA5, 2 ^ 0xA5, 3 ^ 0xA5}
	if got := fake.lastOut[1]; !bytes.Equal(got, want) {
		t.Errorf("corrupted payload = %v, want %v", got, want)
	}
	if !bytes.Equal(orig, []byte{1, 2, 3}) {
		t.Error("caller's buffer was mutated in place")
	}
}

func TestFaultTruncateAllreduce(t *testing.T) {
	fake := &fakeTransport{rank: 0, size: 2}
	f, err := NewFaulty(fake, Fault{Collective: 0, Kind: FaultTruncate},
		Fault{Collective: 1, Kind: FaultTruncate})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.AllreduceInt64([]int64{7, 8}, Sum)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Errorf("truncated allreduce kept %d elements, want 1", len(res))
	}
	// An empty vector has nothing to truncate; the fault degrades to an
	// error rather than silently passing.
	if _, err := f.AllreduceInt64(nil, Sum); !errors.Is(err, ErrInjected) {
		t.Errorf("empty-vector truncate = %v, want ErrInjected", err)
	}
}

func TestFaultCorruptDegradesOnAllreduceAndBarrier(t *testing.T) {
	fake := &fakeTransport{rank: 0, size: 1}
	f, err := NewFaulty(fake,
		Fault{Collective: 0, Kind: FaultCorrupt},
		Fault{Collective: 1, Kind: FaultTruncate})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AllreduceInt64([]int64{1}, Sum); !errors.Is(err, ErrInjected) {
		t.Errorf("corrupt allreduce = %v, want ErrInjected", err)
	}
	if err := f.Barrier(); !errors.Is(err, ErrInjected) {
		t.Errorf("truncate barrier = %v, want ErrInjected", err)
	}
}

func TestFaultPlanDeterministic(t *testing.T) {
	const seed, n, span = 42, 4, 50
	a := FaultPlan(seed, n, span, time.Second)
	b := FaultPlan(seed, n, span, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different plans:\n%v\n%v", a, b)
	}
	if len(a) != n {
		t.Fatalf("plan has %d faults, want %d", len(a), n)
	}
	seen := make(map[int]bool)
	for i, flt := range a {
		if flt.Collective < 0 || flt.Collective >= span {
			t.Errorf("fault %d at %d outside [0,%d)", i, flt.Collective, span)
		}
		if seen[flt.Collective] {
			t.Errorf("duplicate fault index %d", flt.Collective)
		}
		seen[flt.Collective] = true
		if i > 0 && a[i-1].Collective > flt.Collective {
			t.Error("plan not sorted by collective index")
		}
		if flt.Stall != time.Second {
			t.Errorf("fault %d stall = %v", i, flt.Stall)
		}
	}
	// Restricted kinds are honored, and n is clamped to the span.
	only := FaultPlan(7, 10, 5, 0, FaultCrash)
	if len(only) != 5 {
		t.Errorf("clamped plan has %d faults, want 5", len(only))
	}
	for _, flt := range only {
		if flt.Kind != FaultCrash {
			t.Errorf("restricted plan drew kind %v", flt.Kind)
		}
	}
}

func TestFaultKindString(t *testing.T) {
	kinds := map[FaultKind]string{
		FaultError:    "error",
		FaultCrash:    "crash",
		FaultStall:    "stall",
		FaultTruncate: "truncate",
		FaultCorrupt:  "corrupt",
		FaultKind(99): "FaultKind(99)",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}
