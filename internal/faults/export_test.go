package faults

// Ops returns the op counter of (kind, site, node): how many operations a
// hook there has counted.
func (in *Injector) Ops(kind Kind, site Site, node int) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.tables[kind][site].op(node)
}
