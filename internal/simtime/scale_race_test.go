//go:build race

package simtime

// Under the race detector a finished coroutine keeps its race-detector state
// (~5 KB) for the rest of the test binary: iter.Pull's coroutine exits
// without ending its goroutine there. 100 000 spawns, ten times over with
// -count=10, are more memory than a small machine has; 2 000 still fill and
// drain the live list.
const finishedSpawns = 2_000

// DebtWorlds is how many generated worlds TestDebtEquivalence runs both ways:
// each spawns a machine's worth of processes, twice.
const DebtWorlds = 20
