//go:build !race

package simtime

// finishedSpawns is how many short-lived processes
// TestFinishedProcsLeaveLiveSet spawns.
const finishedSpawns = 100_000
