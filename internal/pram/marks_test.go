package pram

import "testing"

func TestMarksPartitionCharges(t *testing.T) {
	m := New()
	m.For(100, func(int) {})
	m.SetMark("a")
	m.For(50, func(int) {})
	m.For(25, func(int) {})
	m.SetMark("b")
	marks := m.Marks()
	if len(marks) != 2 {
		t.Fatalf("got %d marks", len(marks))
	}
	if marks[0] != (Mark{Label: "a", Steps: 1, Work: 100}) {
		t.Errorf("mark a = %+v", marks[0])
	}
	if marks[1] != (Mark{Label: "b", Steps: 2, Work: 75}) {
		t.Errorf("mark b = %+v", marks[1])
	}
	var s, w int64
	for _, mk := range marks {
		s += mk.Steps
		w += mk.Work
	}
	if s != m.Steps() || w != m.Work() {
		t.Error("marks must partition the totals")
	}
}

func TestResetMarks(t *testing.T) {
	m := New()
	m.For(10, func(int) {})
	m.SetMark("early")
	m.ResetMarks()
	if len(m.Marks()) != 0 {
		t.Fatal("marks should be cleared")
	}
	m.For(5, func(int) {})
	m.SetMark("later")
	if got := m.Marks()[0]; got.Work != 5 {
		t.Errorf("post-reset mark = %+v (must not include pre-reset charges)", got)
	}
}

func TestResetClearsMarkBase(t *testing.T) {
	m := New()
	m.For(10, func(int) {})
	m.Reset()
	m.For(3, func(int) {})
	m.SetMark("a")
	if got := m.Marks()[0]; got.Work != 3 || got.Steps != 1 {
		t.Errorf("mark after Reset = %+v", got)
	}
}

func TestMarksAreCopies(t *testing.T) {
	m := New()
	m.SetMark("a")
	marks := m.Marks()
	marks[0].Label = "mutated"
	if m.Marks()[0].Label != "a" {
		t.Error("Marks must return a copy")
	}
}
