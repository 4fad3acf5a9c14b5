package sim

// CacheLines exposes a cache's ways, set-major, to the external tests.
func CacheLines(c *Cache) []cacheLine { return c.lines }
