//go:build !race

package wmcs

const raceEnabled = false
