package corpus

import (
	"fmt"
	"sync"
	"testing"
)

func docsOf(n int) [][]byte {
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = []byte(fmt.Sprintf("doc-%d", i))
	}
	return docs
}

// TestPartitionCoversExactly pins the partition laws every consumer leans
// on: each document is owned by exactly one shard, shard slices are
// ascending global ordinals, and owner/ShardDocs agree.
func TestPartitionCoversExactly(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8, 64} {
		snap := NewSnapshot("c", 1, docsOf(100), k)
		if snap.Shards() != k {
			t.Fatalf("K=%d: Shards() = %d", k, snap.Shards())
		}
		seen := make(map[int]int)
		for s := 0; s < k; s++ {
			prev := -1
			for _, g := range snap.ShardDocs(s) {
				if g <= prev {
					t.Fatalf("K=%d shard %d: ordinals not ascending: %v", k, s, snap.ShardDocs(s))
				}
				prev = g
				seen[g]++
				if snap.Owner(g) != s {
					t.Fatalf("K=%d: doc %d in shard %d but Owner says %d", k, g, s, snap.Owner(g))
				}
			}
		}
		if len(seen) != snap.Len() {
			t.Fatalf("K=%d: %d of %d docs assigned", k, len(seen), snap.Len())
		}
		for g, n := range seen {
			if n != 1 {
				t.Fatalf("K=%d: doc %d assigned %d times", k, g, n)
			}
		}
	}
}

// TestPartitionBalance checks the ordinal-hash partition spreads a large
// corpus roughly evenly — no shard more than 2x the ideal share.
func TestPartitionBalance(t *testing.T) {
	const n, k = 10000, 8
	snap := NewSnapshot("c", 1, docsOf(n), k)
	for s := 0; s < k; s++ {
		if got := len(snap.ShardDocs(s)); got > 2*n/k {
			t.Fatalf("shard %d owns %d of %d docs (ideal %d)", s, got, n, n/k)
		}
	}
}

func TestSnapshotBytes(t *testing.T) {
	snap := NewSnapshot("c", 1, [][]byte{[]byte("aa"), []byte("bbb"), nil}, 2)
	if snap.Bytes() != 5 {
		t.Fatalf("Bytes() = %d, want 5", snap.Bytes())
	}
}

// TestGenerationsMonotone pins the generation contract: first Register is
// 1, replace bumps, delete consumes a tombstone generation, re-register
// after delete keeps climbing.
func TestGenerationsMonotone(t *testing.T) {
	r := NewRegistry(Limits{})
	s1, err := r.Register("c", docsOf(3), 2)
	if err != nil || s1.Generation() != 1 {
		t.Fatalf("first register: gen %d, err %v", s1.Generation(), err)
	}
	s2, err := r.Register("c", docsOf(4), 2)
	if err != nil || s2.Generation() != 2 {
		t.Fatalf("replace: gen %d, err %v", s2.Generation(), err)
	}
	// The replaced snapshot is untouched: old readers keep a full view.
	if s1.Len() != 3 || s1.Generation() != 1 {
		t.Fatalf("old snapshot mutated: len %d gen %d", s1.Len(), s1.Generation())
	}
	gen, ok := r.Delete("c")
	if !ok || gen != 3 {
		t.Fatalf("delete: gen %d ok %v, want tombstone 3", gen, ok)
	}
	if _, ok := r.Get("c"); ok {
		t.Fatal("corpus still resolvable after delete")
	}
	s4, err := r.Register("c", docsOf(1), 1)
	if err != nil || s4.Generation() != 4 {
		t.Fatalf("re-register after delete: gen %d, err %v (must exceed tombstone)", s4.Generation(), err)
	}
	if gen, ok := r.Delete("nope"); ok || gen != 0 {
		t.Fatalf("delete of unknown name = (%d, %v)", gen, ok)
	}
}

func TestRegistryLimits(t *testing.T) {
	r := NewRegistry(Limits{MaxCorpora: 2, MaxDocs: 3, MaxBytes: 10})
	if _, err := r.Register("c", docsOf(4), 1); err == nil {
		t.Fatal("over-doc-count register accepted")
	}
	if _, err := r.Register("c", [][]byte{make([]byte, 11)}, 1); err == nil {
		t.Fatal("over-bytes register accepted")
	}
	if _, err := r.Register("c", docsOf(1), 0); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := r.Register("bad name!", docsOf(1), 1); err == nil {
		t.Fatal("invalid name accepted")
	}
	if _, err := r.Register("a", docsOf(1), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("b", docsOf(1), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("c", docsOf(1), 1); err == nil {
		t.Fatal("third corpus accepted over MaxCorpora=2")
	}
	// Replacing an existing name is not a new corpus and must stay legal.
	if _, err := r.Register("a", docsOf(2), 2); err != nil {
		t.Fatalf("replace under MaxCorpora: %v", err)
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"a", "logs-2026.08", "A_b-c.d", "x"} {
		if !ValidName(ok) {
			t.Errorf("ValidName(%q) = false", ok)
		}
	}
	long := make([]byte, 129)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "a b", "a/b", "ü", "a\x00b", string(long)} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true", bad)
		}
	}
}

// TestRegistryConcurrentReplaceAndRead races Register against Get/List;
// run under -race it pins that readers always observe a fully built,
// single-generation snapshot.
func TestRegistryConcurrentReplaceAndRead(t *testing.T) {
	r := NewRegistry(Limits{})
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.Register("c", docsOf(1+i%7), 1+i%4); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastGen uint64
			for i := 0; i < 500; i++ {
				snap, ok := r.Get("c")
				if !ok {
					continue
				}
				if snap.Generation() < lastGen {
					t.Errorf("generation went backwards: %d after %d", snap.Generation(), lastGen)
					return
				}
				lastGen = snap.Generation()
				// A snapshot is internally consistent whatever the
				// registry does meanwhile.
				total := 0
				for s := 0; s < snap.Shards(); s++ {
					total += len(snap.ShardDocs(s))
				}
				if total != snap.Len() {
					t.Errorf("snapshot torn: %d assigned of %d", total, snap.Len())
					return
				}
				r.List()
			}
		}()
	}
	readers.Wait()
	close(stop)
	<-writerDone
}
