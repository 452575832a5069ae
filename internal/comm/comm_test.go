package comm

import (
	"reflect"
	"testing"
)

func TestReduceOpApply(t *testing.T) {
	cases := []struct {
		op   ReduceOp
		a, b []int64
		want []int64
	}{
		{Sum, []int64{1, 2, 3}, []int64{4, 5, 6}, []int64{5, 7, 9}},
		{Min, []int64{1, 9, -3}, []int64{4, 5, -6}, []int64{1, 5, -6}},
		{Max, []int64{1, 9, -3}, []int64{4, 5, -6}, []int64{4, 9, -3}},
		{Sum, nil, nil, nil},
	}
	for _, c := range cases {
		a := append([]int64(nil), c.a...)
		got := c.op.Apply(a, c.b)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v.Apply(%v, %v) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestReduceOpString(t *testing.T) {
	if Sum.String() != "sum" || Min.String() != "min" || Max.String() != "max" {
		t.Error("ReduceOp names wrong")
	}
	if ReduceOp(9).String() == "" {
		t.Error("unknown op stringer empty")
	}
}

// fakeTransport counts nothing itself; used to test the Counting wrapper.
type fakeTransport struct {
	rank, size int
	lastOut    [][]byte
	inject     [][]byte
}

func (f *fakeTransport) Rank() int { return f.rank }
func (f *fakeTransport) Size() int { return f.size }
func (f *fakeTransport) Exchange(out [][]byte) ([][]byte, error) {
	f.lastOut = out
	return f.inject, nil
}
func (f *fakeTransport) AllreduceInt64(vals []int64, op ReduceOp) ([]int64, error) {
	return vals, nil
}
func (f *fakeTransport) Barrier() error { return nil }
func (f *fakeTransport) Close() error   { return nil }

func TestCountingExchange(t *testing.T) {
	fake := &fakeTransport{rank: 1, size: 3,
		inject: [][]byte{make([]byte, 10), nil, make([]byte, 4)}}
	c := NewCounting(fake)
	out := [][]byte{make([]byte, 7), make([]byte, 100), make([]byte, 0)}
	if _, err := c.Exchange(out); err != nil {
		t.Fatal(err)
	}
	// Rank 1's own 100-byte buffer is local delivery, not traffic.
	if c.Stats.BytesSent != 7 {
		t.Errorf("BytesSent = %d, want 7", c.Stats.BytesSent)
	}
	if c.Stats.MessagesSent != 1 {
		t.Errorf("MessagesSent = %d, want 1", c.Stats.MessagesSent)
	}
	if c.Stats.BytesReceived != 14 {
		t.Errorf("BytesReceived = %d, want 14", c.Stats.BytesReceived)
	}
	if c.Stats.ExchangeCalls != 1 {
		t.Errorf("ExchangeCalls = %d, want 1", c.Stats.ExchangeCalls)
	}
}

func TestCountingCollectives(t *testing.T) {
	c := NewCounting(&fakeTransport{rank: 0, size: 1, inject: [][]byte{nil}})
	if _, err := c.AllreduceInt64([]int64{1}, Sum); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	if c.Stats.AllreduceCalls != 1 || c.Stats.BarrierCalls != 1 {
		t.Errorf("collective counters %+v", c.Stats)
	}
	if c.Rank() != 0 || c.Size() != 1 {
		t.Error("Rank/Size not forwarded")
	}
	if err := c.Close(); err != nil {
		t.Error(err)
	}
}
