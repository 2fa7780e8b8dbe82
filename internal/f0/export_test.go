package f0

// Indexed counts m's KMV repetitions that hold a membership index, and all
// of them, for the external test that watches an ensemble's copies.
func (m *Median) Indexed() (indexed, reps int) {
	for _, r := range m.reps {
		if s, ok := r.(*KMV); ok && s.in != nil {
			indexed++
		}
	}
	return indexed, len(m.reps)
}
