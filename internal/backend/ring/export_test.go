package ring

import "hamoffload/internal/veos"

// Registered reports whether vp holds target state.
func Registered(vp *veos.Process) bool {
	_, ok := targetOf(vp)
	return ok
}

// ParkedHandles counts the released handles on h's free list.
func ParkedHandles(h *Host) int {
	n := 0
	for hd := h.free; hd != nil; hd = hd.next {
		n++
	}
	return n
}
