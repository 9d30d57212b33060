package faults

// Ops returns the op counter of (kind, site, node): how many operations a
// hook there has counted.
func (in *Injector) Ops(kind Kind, site Site, node int) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	if ops := in.tables[kind][site].ops; node < len(ops) {
		return ops[node]
	}
	return 0
}
