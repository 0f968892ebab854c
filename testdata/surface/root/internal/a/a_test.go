package a

import "testing"

func TestUnused(t *testing.T) {
	if Unused() != 3 {
		t.Fatal("Unused")
	}
}
