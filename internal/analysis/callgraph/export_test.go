package callgraph

// Lookup returns the node with the given full name, or nil.
func (g *Graph) Lookup(fullName string) *Node {
	return g.nodes[fullName]
}
