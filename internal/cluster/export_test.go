package cluster

// FreeLLMAttempts returns the length of c's attempt-record free list. Once
// the fleet is quiescent every record is back on it, so it is also how many
// records c allocated.
func FreeLLMAttempts(c *LLMCluster) int { return len(c.free) }
