package ckpt

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"drms/internal/msg"
	"drms/internal/stream"
)

// tierPieceKeys lists the piece keys (segment excluded) a generation
// prefix has in the tier, in a deterministic order.
func tierPieceKeys(tier *MemTier, prefix string) []memKey {
	seen := map[memKey]bool{}
	tier.mu.Lock()
	for _, st := range tier.stores {
		for k := range st.entries {
			if k.prefix == prefix && k.index != segIndex {
				seen[k] = true
			}
		}
	}
	tier.mu.Unlock()
	keys := make([]memKey, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].arr != keys[j].arr {
			return keys[i].arr < keys[j].arr
		}
		return keys[i].index < keys[j].index
	})
	return keys
}

// corruptReplicas replaces the replicas of k held by the first n
// holders that have one (ascending holder id) with copies whose first
// byte is incremented (so corrupting twice never restores it), and returns how many it replaced. Replicas share one
// backing array, so flipping in place would damage every holder; the
// copy leaves the others intact. The published CRC stays, as it would
// after a memory fault.
func corruptReplicas(t *testing.T, tier *MemTier, k memKey, n int) int {
	t.Helper()
	tier.mu.Lock()
	defer tier.mu.Unlock()
	hit := 0
	for _, h := range tier.ids {
		e, ok := tier.stores[h].entries[k]
		if !ok || hit == n {
			continue
		}
		bad := append([]byte(nil), e.data...)
		bad[0]++
		tier.stores[h].entries[k] = memEntry{data: bad, crc: e.crc}
		hit++
	}
	if hit == 0 {
		t.Fatalf("no replica of %+v to corrupt", k)
	}
	return hit
}

func replicasOf(tier *MemTier, k memKey) int {
	for _, e := range tier.Entries(k.prefix) {
		if e.Arr == k.arr && e.Index == k.index {
			return e.Replicas
		}
	}
	return 0
}

// TestTierCorruptReplica: a replica whose bytes no longer match its
// published CRC is never served. The presence probe that picks the hot
// read plan still counts it, so the one CRC check on fetch must catch it:
// the restore stays bit-exact from the surviving replica or the pfs, and
// a memory-only piece with no good replica left is a CorruptError that
// sends resolution back to the older generation.
func TestTierCorruptReplica(t *testing.T) {
	fs := testFS()
	tier := NewMemTier()
	co := ChainOptions{Tier: tier, Replicas: 1, Codec: CodecRaw}
	writeChainGen(t, fs, "job.g0", co, 0, 4, []int{2, 2})
	co1 := co
	co1.Prev, co1.Delta, co1.MemOnly = "job.g0", true, true
	writeChainGen(t, fs, "job.g1", co1, 1, 4, []int{2, 2})

	// Write-through generation: every replica of one piece corrupt. The
	// restore is exact, and that piece comes from the pfs.
	k0 := tierPieceKeys(tier, "job.g0")[0]
	corruptReplicas(t, tier, k0, len(tier.ids))
	st := restoreChainTier(t, fs, tier, "job.g0", 0, 4, []int{2, 2})
	if st.TierPFSBytes == 0 || st.TierMemBytes == 0 {
		t.Fatalf("write-through restore with one corrupt piece read mem=%d pfs=%d, want both",
			st.TierMemBytes, st.TierPFSBytes)
	}

	// Diskless generation: one holder's replica of a memory-only piece
	// corrupt. fsck's replica count drops, VerifyTier still passes on
	// the surviving replica, and the restore is exact from memory alone.
	k1 := tierPieceKeys(tier, "job.g1")[0]
	before := replicasOf(tier, k1)
	if before < 2 {
		t.Fatalf("memory-only piece %+v has %d replicas, want >= 2", k1, before)
	}
	corruptReplicas(t, tier, k1, 1)
	if got := replicasOf(tier, k1); got != before-1 {
		t.Fatalf("replicas after corrupting one = %d, want %d", got, before-1)
	}
	if err := VerifyTier(fs, tier, "job.g1", 0); err != nil {
		t.Fatalf("verify with a surviving replica: %v", err)
	}
	st = restoreChainTier(t, fs, tier, "job.g1", 1, 4, []int{2, 2})
	if st.TierMemBytes == 0 {
		t.Fatalf("diskless restore read no tier bytes: %+v", st)
	}

	// Every replica corrupt: the piece is lost. VerifyTier flags it, a
	// restore fails typed, and resolution quarantines the diskless
	// generation and falls back to the write-through one.
	corruptReplicas(t, tier, k1, len(tier.ids))
	if got := replicasOf(tier, k1); got != 0 {
		t.Fatalf("replicas after corrupting all = %d, want 0", got)
	}
	var ce *CorruptError
	if err := VerifyTier(fs, tier, "job.g1", 0); !errors.As(err, &ce) || ce.Piece != k1.index {
		t.Fatalf("verify with every replica corrupt = %v, want CorruptError on piece %d", err, k1.index)
	}
	err := msg.Run(4, func(c *msg.Comm) error {
		sg, refs, _, _ := buildApp(c, []int{2, 2})
		var iter int
		sg.Register("iter", &iter)
		_, _, err := ReadDRMSOpts(fs, "job.g1", c, sg, refs,
			stream.Options{PieceBytes: 300}, RestoreOptions{Verify: true, Tier: tier})
		return err
	})
	if !errors.As(err, &ce) {
		t.Fatalf("restore with a lost memory-only piece = %v, want CorruptError", err)
	}
	chosen, quarantined, ok, ferr := ResolveVerifiedTier(fs, tier, "job")
	if !ok || chosen != "job.g0" || fmt.Sprint(quarantined) != "[job.g1]" || !errors.As(ferr, &ce) {
		t.Fatalf("resolve = %q quarantined %v ok=%v err=%v, want job.g0 after quarantining job.g1",
			chosen, quarantined, ok, ferr)
	}
	restoreChainTier(t, fs, tier, "job.g0", 0, 4, []int{2, 2})
}

func BenchmarkTierLookup(b *testing.B) {
	tier := NewMemTier()
	data := make([]byte, 32<<10)
	for i := range data {
		data[i] = byte(i * 7)
	}
	crc := crcOf(data)
	for i := 0; i < 64; i++ {
		tier.Publish([]int{i % 4, (i + 1) % 4}, "ck.g0", "u", i, data, crc)
	}
	b.Run("prefer", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; b.Loop(); i++ {
			if _, _, ok := tier.LookupPrefer(i%4, "ck.g0", "u", i%64, crc); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("resident", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			if !tier.resident("ck.g0", "u", i%64, crc) {
				b.Fatal("miss")
			}
		}
	})
}
