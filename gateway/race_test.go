//go:build race

package gateway

// raceEnabled: the race detector allocates on the simulated processes'
// coroutine switches, so exact malloc counts over a served request do not
// hold under it.
const raceEnabled = true
