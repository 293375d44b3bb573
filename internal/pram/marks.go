package pram

// Mark is a named accounting checkpoint: the time and work charged since
// the previous mark.  The driver algorithms mark stage boundaries so that
// experiments can attribute cost to Stage 1 / phases / REMAIN etc.
type Mark struct {
	Label string
	Steps int64
	Work  int64
}

// SetMark records the charges accumulated since the last SetMark (or since
// construction/Reset) under the given label.  Consecutive marks therefore
// partition the run's total cost.
func (m *Machine) SetMark(label string) {
	m.marks = append(m.marks, Mark{
		Label: label,
		Steps: m.steps - m.lastMarkSteps,
		Work:  m.work - m.lastMarkWork,
	})
	m.lastMarkSteps = m.steps
	m.lastMarkWork = m.work
}

// Marks returns the recorded checkpoints in order.
func (m *Machine) Marks() []Mark {
	out := make([]Mark, len(m.marks))
	copy(out, m.marks)
	return out
}

// ResetMarks clears the checkpoint log (counters are untouched); the log
// keeps its capacity, since Marks hands out copies.
func (m *Machine) ResetMarks() {
	m.marks = m.marks[:0]
	m.lastMarkSteps = m.steps
	m.lastMarkWork = m.work
}
