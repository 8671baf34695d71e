package kvcache

import "aegaeon/internal/memory"

// FreeTokensAvailable estimates how many more tokens of the class can be
// allocated right now.
func (c *Cache) FreeTokensAvailable(class memory.ClassID) int64 {
	n, err := c.pool.FreeBlocksAvailable(class)
	if err != nil {
		return 0
	}
	return int64(n) * int64(c.blockTokens)
}
