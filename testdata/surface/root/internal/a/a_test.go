package a

import "testing"

func TestUnused(t *testing.T) {
	if Unused() != 3 {
		t.Fatal("Unused")
	}
}

func TestWritten(t *testing.T) {
	if s := NewS(); s.written != 4 || len(s.log) != 1 {
		t.Fatal("NewS")
	}
}

func TestApply(t *testing.T) {
	if Apply(Config{TestOnly: 2}) != 3 {
		t.Fatal("Apply")
	}
}
