package functional

// Instret exposes the retired correct-path instruction count to the
// external tests; production code has no reader for it.
func Instret(c *CPU) uint64 { return c.instret }
