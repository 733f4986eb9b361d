//go:build race

package wmcs

// raceEnabled reports whether this test binary runs under the race
// detector, where sync.Pool drops Puts at random.
const raceEnabled = true
