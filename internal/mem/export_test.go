package mem

// MappedBytes returns the total size of all mapped extents (address space,
// not resident memory).
func (m *Memory) MappedBytes() int64 {
	var n int64
	for _, e := range m.extents {
		n += e.size
	}
	return n
}
