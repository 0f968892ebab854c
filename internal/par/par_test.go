package par

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForRunsEveryIndex(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 100
	var hits [n]int32
	if err := For(n, func(i int) error {
		atomic.AddInt32(&hits[i], 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

func TestForReturnsLowestIndexError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	errLow, errHigh := errors.New("low"), errors.New("high")
	var ran int32
	err := For(10, func(i int) error {
		atomic.AddInt32(&ran, 1)
		switch i {
		case 3:
			return errLow
		case 7:
			return errHigh
		}
		return nil
	})
	if err != errLow {
		t.Fatalf("err = %v, want %v", err, errLow)
	}
	// Errors do not cancel the remaining indexes.
	if ran != 10 {
		t.Fatalf("ran %d of 10 indexes", ran)
	}
}

func TestForZeroAndSerial(t *testing.T) {
	if err := For(0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	order := make([]int, 0, 5)
	if err := For(5, func(i int) error {
		order = append(order, i) // safe: serial fallback
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v", order)
		}
	}
}
