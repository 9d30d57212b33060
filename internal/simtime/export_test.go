package simtime

// Eager makes every Proc.Charge on e sleep at once: the program as it ran
// before processes owed time, the oracle TestDebtEquivalence compares with.
func Eager(e *Engine) { e.eager = true }

// Resumes returns how many times e resumed a process, by Run or by a parking
// process: every resume is two coroutine switches, into the process and back.
func Resumes(e *Engine) uint64 { return e.resumes }
