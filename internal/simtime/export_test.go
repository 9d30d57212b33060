package simtime

// Eager makes every Proc.Charge on e sleep at once: the program as it ran
// before processes owed time, the oracle TestDebtEquivalence compares with.
func Eager(e *Engine) { e.eager = true }
