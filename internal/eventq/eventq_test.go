package eventq

import (
	"math/rand"
	"sort"
	"testing"
)

// TestPopOrder drains random interleavings of pushes and pops and
// checks every pop against a sorted reference of the live keys.
func TestPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		var h Heap
		var ref []Entry
		var seq uint64
		for op := 0; op < 300; op++ {
			if len(ref) == 0 || rng.Intn(3) > 0 {
				seq++
				// A small time range forces many equal-At ties.
				e := Entry{At: int64(rng.Intn(20)), Seq: seq, Slot: int32(op)}
				h.Push(e)
				ref = append(ref, e)
				continue
			}
			sort.Slice(ref, func(i, j int) bool { return ref[i].before(ref[j]) })
			got, want := h.Pop(), ref[0]
			ref = ref[1:]
			if got != want {
				t.Fatalf("round %d op %d: popped %+v, want %+v", round, op, got, want)
			}
		}
		if h.Len() != len(ref) {
			t.Fatalf("round %d: Len = %d, want %d", round, h.Len(), len(ref))
		}
	}
}

func TestMinPeeks(t *testing.T) {
	h := New(4)
	h.Push(Entry{At: 5, Seq: 2, Slot: 1})
	h.Push(Entry{At: 5, Seq: 1, Slot: 2})
	h.Push(Entry{At: 9, Seq: 0, Slot: 3})
	if m := h.Min(); m.Slot != 2 || h.Len() != 3 {
		t.Fatalf("Min = %+v (Len %d), want slot 2 without removal", m, h.Len())
	}
	for _, want := range []int32{2, 1, 3} {
		if got := h.Pop().Slot; got != want {
			t.Fatalf("popped slot %d, want %d", got, want)
		}
	}
}

func TestPushPopAllocatesNothing(t *testing.T) {
	h := New(64)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			h.Push(Entry{At: int64(i * 7 % 13), Seq: uint64(i), Slot: int32(i)})
		}
		for h.Len() > 0 {
			h.Pop()
		}
	})
	if allocs != 0 {
		t.Errorf("push/pop within capacity allocated %.1f times per run", allocs)
	}
}
