//go:build !amd64 || amd64.v2

package wmcs

// goldenTarget is false off the corpus's pinned target (see
// golden_target_test.go).
const goldenTarget = false
