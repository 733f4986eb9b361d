//go:build amd64 && !amd64.v2

package wmcs

// goldenTarget reports that this build is the corpus's pinned target:
// amd64 at GOAMD64=v1, which has no FMA, so no multiply-add is fused.
const goldenTarget = true
