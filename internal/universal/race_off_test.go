//go:build !race

package universal

const raceEnabled = false
