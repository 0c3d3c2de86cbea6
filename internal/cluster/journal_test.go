package cluster

import (
	"math/rand"
	"testing"
)

// The journal keeps exactly the entries a plain slice would under a random
// mix of appends, evictions at the depth cap and trims, while its array
// stays within a small multiple of the depth; held at its depth it appends
// without allocating.
func TestJournalWindow(t *testing.T) {
	const depth = 100
	rnd := rand.New(rand.NewSource(5))
	w := &workerRef{}
	var want []int64
	for seq := int64(1); seq <= 20000; seq++ {
		w.journalAppend(jentry{seq: seq}, depth)
		if want = append(want, seq); len(want) > depth {
			want = want[1:]
		}
		if rnd.Intn(50) == 0 && len(want) > 0 {
			cut := want[rnd.Intn(len(want))]
			w.journalTrim(cut)
			for len(want) > 0 && want[0] <= cut {
				want = want[1:]
			}
		}
		if len(w.journal) != len(want) || len(want) > 0 && (w.journal[0].seq != want[0] || w.journal[len(want)-1].seq != want[len(want)-1]) {
			t.Fatalf("seq %d: journal holds %d entries, want %d", seq, len(w.journal), len(want))
		}
		if cap(w.jbuf) > 4*depth+64 {
			t.Fatalf("seq %d: journal array grew to %d for depth %d", seq, cap(w.jbuf), depth)
		}
	}
	seq := int64(1 << 20)
	if a := testing.AllocsPerRun(1000, func() {
		seq++
		w.journalAppend(jentry{seq: seq}, depth)
	}); a != 0 {
		t.Fatalf("a full journal allocates %v times per append", a)
	}
	if got := w.evicted; got == 0 {
		t.Fatal("no evictions counted")
	}
}
