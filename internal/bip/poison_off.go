//go:build !poison

package bip

// Poison is true in builds tagged poison, a test mode in which released
// message memory is overwritten or retired instead of reused, so a
// handler that keeps a message past its release fails loudly.
const Poison = false
