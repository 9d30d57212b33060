package ring

// Registered reports how many VE processes currently hold target state.
func Registered() int { return len(targets) }

// ParkedHandles counts the released handles on h's free list.
func ParkedHandles(h *Host) int {
	n := 0
	for hd := h.free; hd != nil; hd = hd.next {
		n++
	}
	return n
}
