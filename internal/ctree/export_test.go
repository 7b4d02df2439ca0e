package ctree

// Test hooks for the external ctree_test package.

// WithRunPoints returns opt with the spilled run size forced to n
// points, so tests can pin exact spilled run counts.
func WithRunPoints(opt BuildOptions, n int) BuildOptions {
	opt.runPoints = n
	return opt
}

// PerPointTree is the per-point reference oracle (oracle_test.go).
var PerPointTree = perPointTree
