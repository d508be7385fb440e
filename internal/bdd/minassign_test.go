package bdd

// MinAssignment is AppendMinAssignment in the map form the oracle returns:
// variables absent from the map are don't-cares. The tests compare and
// inspect assignments through it.
func (m *Manager) MinAssignment(f Ref) (assign map[int]bool, ok bool) {
	lits, ok := m.AppendMinAssignment(nil, f)
	if !ok {
		return nil, false
	}
	assign = make(map[int]bool, len(lits))
	for _, l := range lits {
		assign[l.Var] = l.Val
	}
	return assign, true
}
