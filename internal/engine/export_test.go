package engine

// Test-only execution overrides. Production never sets these fields: the
// string-key fallback engages on its own when the key columns' dictionary
// widths overflow one word, and the join path follows the join graph
// (hash joins when acyclic, leapfrog when cyclic). Tests and benchmarks
// force each path to prove every one bit-identical to the oracles in
// reference_test.go.

// execStringKeys forces the string-key fallback over packed uint64 group
// keys.
func execStringKeys() ExecOption {
	return func(c *execConfig) { c.stringKeys = true }
}

// execHashJoin forces the left-deep binary hash-join plan even on cyclic
// join graphs.
func execHashJoin() ExecOption {
	return func(c *execConfig) { c.joins = joinHash }
}

// execGenericJoin forces the worst-case-optimal leapfrog path even on
// acyclic join graphs.
func execGenericJoin() ExecOption {
	return func(c *execConfig) { c.joins = joinGeneric }
}
