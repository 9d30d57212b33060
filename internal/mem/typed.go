package mem

import "encoding/binary"

// Typed accessors used by simulated kernels to operate on buffers in
// simulated memories. All values are little-endian, matching both the x86
// Vector Host and the VE ABI.

// WriteUint64 stores one 64-bit word at addr — the granularity of the VE's
// LHM/SHM instructions.
func (m *Memory) WriteUint64(addr Addr, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return m.WriteAt(buf[:], addr)
}

// ReadUint64 loads one 64-bit word from addr.
func (m *Memory) ReadUint64(addr Addr) (uint64, error) {
	var buf [8]byte
	if err := m.ReadAt(buf[:], addr); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}
