package main

import (
	"math"
	"sort"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1) // 1..1000
	}
	for _, c := range []struct {
		q      float64
		want   float64
		beyond int
	}{
		{50, 500, 500},
		{90, 900, 100},
		{99, 990, 10},
		{99.9, 999, 1},
		{100, 1000, 0},
		{0.01, 1, 999},
	} {
		got := nearestRank(s, c.q)
		if got.Value != c.want || got.Beyond != c.beyond || got.N != 1000 {
			t.Errorf("p%g = %+v, want value %g with %d beyond", c.q, got, c.want, c.beyond)
		}
	}
}

// TestTailSizing pins the samples-beyond rule the workloads are sized by:
// a tail is reportable only with at least ten samples beyond it.
func TestTailSizing(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
	}{
		{999, 99, 9}, {1000, 99, 10}, {200, 95, 10}, {100, 90, 10}, {99, 90, 9}, {7, 50, 3},
	} {
		s := make([]float64, c.n)
		for i := range s {
			s[i] = float64(c.n - i) // unsorted input
		}
		_, tl := percentiles(s, c.q)
		if tl.Beyond != c.beyond || tl.N != c.n {
			t.Errorf("n=%d p%g: beyond=%d, want %d", c.n, c.q, tl.Beyond, c.beyond)
		}
		if !sort.Float64sAreSorted(s) && s[0] != float64(c.n) {
			t.Errorf("percentiles reordered its input")
		}
	}
}

func TestNearestRankTies(t *testing.T) {
	s := []float64{1, 2, 2, 2, 9}
	if got := nearestRank(s, 50); got.Value != 2 || got.Beyond != 2 {
		t.Errorf("p50 of %v = %+v", s, got)
	}
	if got := nearestRank(nil, 99); got.N != 0 || got.Value != 0 {
		t.Errorf("empty = %+v", got)
	}
}

func TestStampRoundTrip(t *testing.T) {
	item := make([]byte, 2*stampEvery+100)
	for i := range item {
		item[i] = byte(i * 7)
	}
	got := stamp(nil, item, 42)
	if !matches(got, item, 42) {
		t.Fatal("stamped payload does not match itself")
	}
	if matches(got, item, 43) {
		t.Fatal("stamp of another save matched")
	}
	for _, off := range []int{0, stampEvery, 2 * stampEvery} {
		seq, blk, ok := readStamp(got[off:])
		if !ok || seq != 42 || blk != off/stampEvery {
			t.Errorf("stamp at %d = %d/%d/%v", off, seq, blk, ok)
		}
	}
	got[stampEvery+500] ^= 1
	if matches(got, item, 42) {
		t.Fatal("corrupted byte not detected")
	}
	short := stamp(nil, item[:10], 1) // too short to stamp: compared verbatim
	if !matches(short, item[:10], 1) {
		t.Fatal("short payload mismatch")
	}
}

// TestCalmDropsSlowWindows checks the calm-half rule on a closed loop
// whose operations run back to back: the windows where they ran slower
// than their own item's usual time are dropped, and the windows of large
// items at their usual time are not.
func TestCalmDropsSlowWindows(t *testing.T) {
	start := time.Unix(0, 0)
	length := windows * time.Second
	slowed := func(i int) bool { return i < windows/2 && i%2 == 1 }
	var ss []sample
	for at := time.Duration(0); at < length; {
		i := int(at / time.Second)
		item, took := 0, 10*time.Millisecond
		if i%3 == 0 {
			item, took = 1, 50*time.Millisecond // a large item
		}
		if slowed(i) {
			took *= 2 // by outside contention
		}
		at += took
		ss = append(ss, sample{kindSave, item, start.Add(at), float64(took) / 1e6})
	}
	keep := calm(ss, start, length)
	n := 0
	for i, k := range keep {
		if k {
			n++
		}
		if slowed(i) && k {
			t.Errorf("window %d was slowed but kept", i)
		}
	}
	if n != windows/2 {
		t.Fatalf("kept %d windows, want %d", n, windows/2)
	}
	// A kept window may hold the one slowed operation that ended on its
	// opening edge, no more.
	lat := latencies(ss, kindSave, keep, start, length)
	late := 0
	for _, v := range lat {
		if v != 10 && v != 50 {
			late++
		}
	}
	if len(lat) < 1000 || late > windows/2 {
		t.Errorf("%d latencies from the kept windows, %d of them slowed", len(lat), late)
	}
}

// TestWindowRatesKept checks that rates count only kept windows, with an
// operation spread over the windows it overlaps.
func TestWindowRatesKept(t *testing.T) {
	start := time.Unix(0, 0)
	length := windows * time.Second
	var keep [windows]bool
	keep[0], keep[1] = true, true
	ds := []done{
		{start, start.Add(time.Second), 100},                              // all in window 0
		{start.Add(time.Second / 2), start.Add(3 * time.Second / 2), 100}, // half in 0, half in 1
		{start.Add(5 * time.Second), start.Add(6 * time.Second), 100},     // dropped window
	}
	ops, bytes := windowRates(ds, keep, start, length)
	if math.Abs(ops-1) > 1e-9 || math.Abs(bytes-100) > 1e-9 {
		t.Errorf("rates = %g ops/s, %g B/s; want 1 and 100", ops, bytes)
	}
}
