package topology

// Conn and ConnInv expose the layer wiring to the external tests, which
// hold it against the incremental builder's tabulated permutations.
func (n *Network) Conn(layer, p int) int    { return n.conn(layer, p) }
func (n *Network) ConnInv(layer, q int) int { return n.connInv(layer, q) }
