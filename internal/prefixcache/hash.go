package prefixcache

import "aegaeon/internal/workload"

// Prompt content is modeled as deterministic token streams (workload.PromptSeg:
// a seed plus a length), so two requests share a prefix exactly when their
// segment lists agree over it. The index never stores tokens: it stores one
// chained hash per block, so a lookup is a walk down the chain and a partial
// match stops at the first block whose chunk hash is absent.

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap, well-mixed
// 64-bit permutation used both to derive token values from (seed, position)
// and to fold tokens into the running chunk hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d4a2a7f6bfec3
	return x ^ (x >> 31)
}

// SegTokens returns the total token count described by the segments.
func SegTokens(segs []workload.PromptSeg) int {
	n := 0
	for _, s := range segs {
		n += s.Len
	}
	return n
}

// ChunkHashes returns the chained block-aligned hashes of the first nblocks
// blocks of the prompt: hash k covers tokens [0, (k+1)*block) because each
// chunk hash folds in its predecessor. Equal hash at depth k therefore means
// equal content over the whole prefix, which is what lets a lookup stop at
// the first absent chunk and still trust everything before it.
func ChunkHashes(segs []workload.PromptSeg, nblocks, block int) []uint64 {
	if nblocks <= 0 || block <= 0 {
		return nil
	}
	if avail := SegTokens(segs) / block; nblocks > avail {
		nblocks = avail
	}
	out := make([]uint64, 0, nblocks)
	h := uint64(0x61656761656f6e00) // chain seed; arbitrary but fixed
	// One pass over the segments: si is the current segment and off the
	// next token's offset inside it. Empty segments are stepped over.
	si, off := 0, 0
	for k := 0; k < nblocks; k++ {
		for i := 0; i < block; i++ {
			for off >= segs[si].Len {
				si, off = si+1, 0
			}
			// A token depends on its segment's seed and its offset there
			// only, so segments with one seed agree over their common
			// length: that is how a later turn re-reads an earlier one.
			h = splitmix64(h ^ splitmix64(segs[si].Seed^splitmix64(uint64(off)+1)))
			off++
		}
		out = append(out, h)
	}
	return out
}
