//go:build poison

package vmem

// Poison is true in builds tagged poison, a test mode in which a page a
// Space releases is overwritten and retired instead of pooled (see
// Pages).
const Poison = true
