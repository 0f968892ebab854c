// KV-cache memory model: paged attention-cache blocks that compete with
// resident model weights for device memory.
//
// Autoregressive decoding keeps a per-sequence key/value cache that grows by
// one token every step. Following the paged-attention design, the cache is
// allocated in fixed-size blocks of BlockTokens tokens, so growth only
// touches the allocator when a sequence crosses a block boundary. Blocks are
// reserved through Device.Alloc — the same accounting that holds the model
// weights — so cache growth and admission compete with everything else on
// the device, and exhaustion surfaces as a failed Grow the serving layer
// must answer with queueing or preemption.
package gpu

// KVStats is a snapshot of cache-allocator counters. Comparable by ==, so
// differential tests can fold it into DeepEqual'd stats.
type KVStats struct {
	// BlocksInUse is the number of blocks currently reserved; BlocksPeak the
	// high-water mark.
	BlocksInUse int
	BlocksPeak  int
	// Seqs is the number of sequences currently holding cache.
	Seqs int
	// AllocFailures counts Grow calls denied for lack of device memory —
	// each one forced an admission or preemption decision upstream.
	AllocFailures int
	// Grown and Released count block allocations and frees over the run.
	Grown    int
	Released int
}

// KVCache manages the attention-cache blocks of one device's sequences.
type KVCache struct {
	dev         *Device
	blockTokens int
	blockBytes  int64

	seqs  map[int]kvSeq
	stats KVStats
}

// kvSeq is one sequence's cache: logical tokens and reserved blocks.
type kvSeq struct {
	tokens, blocks int
}

// NewKVCache wires a block allocator over the device. blockTokens is the
// block granularity in tokens; bytesPerToken the per-token cache footprint
// of the served model.
func NewKVCache(dev *Device, blockTokens int, bytesPerToken int64) *KVCache {
	if blockTokens <= 0 {
		blockTokens = 16
	}
	if bytesPerToken <= 0 {
		bytesPerToken = 1
	}
	return &KVCache{
		dev:         dev,
		blockTokens: blockTokens,
		blockBytes:  int64(blockTokens) * bytesPerToken,
		seqs:        make(map[int]kvSeq),
	}
}

// BlockTokens returns the block granularity in tokens.
func (kc *KVCache) BlockTokens() int { return kc.blockTokens }

// BlockBytes returns one block's device-memory footprint.
func (kc *KVCache) BlockBytes() int64 { return kc.blockBytes }

func (kc *KVCache) blocksFor(tokens int) int {
	return (tokens + kc.blockTokens - 1) / kc.blockTokens
}

// CanFit reports whether growing a fresh sequence to the given token count
// would succeed right now.
func (kc *KVCache) CanFit(tokens int) bool {
	need := int64(kc.blocksFor(tokens)) * kc.blockBytes
	return kc.dev.MemoryInUse()+need <= kc.dev.Spec().MemoryBytes
}

// Grow ensures the sequence's cache covers tokens total tokens, reserving
// blocks as needed. On exhaustion nothing is allocated (no partial growth)
// and the device's ErrOutOfMemory is returned: the caller must queue,
// preempt a victim, or fail the sequence.
func (kc *KVCache) Grow(seq, tokens int) error {
	s, ok := kc.seqs[seq]
	if need := kc.blocksFor(tokens); need > s.blocks {
		if err := kc.dev.Alloc(int64(need-s.blocks) * kc.blockBytes); err != nil {
			kc.stats.AllocFailures++
			return err
		}
		kc.stats.Grown += need - s.blocks
		kc.stats.BlocksInUse += need - s.blocks
		kc.stats.BlocksPeak = max(kc.stats.BlocksPeak, kc.stats.BlocksInUse)
		s.blocks = need
	} else if ok && tokens <= s.tokens {
		return nil
	}
	if !ok {
		kc.stats.Seqs++
	}
	s.tokens = max(s.tokens, tokens)
	kc.seqs[seq] = s
	return nil
}

// Release frees every block the sequence holds. Releasing an unknown
// sequence is a no-op, so crash unwinding may release unconditionally.
func (kc *KVCache) Release(seq int) {
	s, ok := kc.seqs[seq]
	if !ok {
		return
	}
	kc.dev.Free(int64(s.blocks) * kc.blockBytes)
	kc.stats.BlocksInUse -= s.blocks
	kc.stats.Released += s.blocks
	delete(kc.seqs, seq)
	kc.stats.Seqs--
}

// SeqTokens returns the tokens cached for a sequence (0 when absent).
func (kc *KVCache) SeqTokens(seq int) int { return kc.seqs[seq].tokens }

// BytesInUse returns the cache's current device-memory footprint.
func (kc *KVCache) BytesInUse() int64 {
	return int64(kc.stats.BlocksInUse) * kc.blockBytes
}

// Stats returns a snapshot of allocator counters.
func (kc *KVCache) Stats() KVStats { return kc.stats }
