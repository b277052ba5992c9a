//go:build race

package trussdiv_test

// raceEnabled reports a -race build, where sync.Pool drops a random share
// of the items put back, so steady-state allocation counts do not hold.
const raceEnabled = true
