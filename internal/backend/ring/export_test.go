package ring

import "hamoffload/internal/veos"

// Registered reports whether vp holds target state.
func Registered(vp *veos.Process) bool {
	_, ok := targetOf(vp)
	return ok
}

// ParkedHandles counts h's released handles.
func ParkedHandles(h *Host) int {
	n := 0
	for range h.handles.Parked() {
		n++
	}
	return n
}
