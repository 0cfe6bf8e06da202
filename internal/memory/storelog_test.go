package memory

import (
	"math"
	"testing"
)

// TestStoreLogBitmapSharedBit stores to one of two words that share a
// bitmap bit: a load of the other word passes the bitmap, scans, finds
// nothing and reads the backing memory, while the stored word forwards.
// After the flush and reset the bit is clear again.
func TestStoreLogBitmapSharedBit(t *testing.T) {
	mem := New(1 << 20)
	a := mem.Alloc(storedWords*64 + 1)
	b := a + storedWords*64*WordBytes // the next word with a's bit
	ia, ba := storedBit(a)
	if ib, bb := storedBit(b); ia != ib || ba != bb {
		t.Fatalf("words %#x and %#x do not share a bit", a, b)
	}
	mem.Store(a, 1)
	mem.Store(b, 2)

	l := NewStoreLog(mem)
	l.SetCycle(5)
	l.Store(a+3, 10) // canonicalized to a's word
	if got := l.Load(a); got != 10 {
		t.Errorf("Load(a) = %d, want the forwarded 10", got)
	}
	if got := l.Load(b); got != 2 {
		t.Errorf("Load(b) = %d, want memory's 2 (b shares a's bit but was never stored)", got)
	}
	if got := l.Load(a + WordBytes); got != 0 {
		t.Errorf("Load(a+8) = %d, want memory's 0", got)
	}
	if got := l.NextStamp(); got != 5 {
		t.Errorf("NextStamp = %d, want 5", got)
	}
	l.FlushThrough(4)
	if mem.Load(a) != 1 || l.Len() != 1 {
		t.Fatalf("FlushThrough(4) applied a store stamped 5")
	}
	l.FlushThrough(5)
	if mem.Load(a) != 10 || l.Len() != 0 || l.NextStamp() != math.MaxInt64 {
		t.Fatalf("FlushThrough(5): memory %d, %d pending, next stamp %d", mem.Load(a), l.Len(), l.NextStamp())
	}
	for i, w := range l.stored {
		if w != 0 {
			t.Fatalf("bitmap word %d is %#x after the log drained, want clear", i, w)
		}
	}
	mem.Store(a, 11)
	if got := l.Load(a); got != 11 {
		t.Errorf("Load(a) after reset = %d, want memory's 11", got)
	}
}
