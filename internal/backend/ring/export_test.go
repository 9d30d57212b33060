package ring

// Registered reports how many VE processes currently hold target state.
func Registered() int { return len(targets) }
