package parallel

import (
	"sync/atomic"
	"testing"
)

func TestMapOrderAndCompleteness(t *testing.T) {
	got := Map(100, 8, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestMapZeroAndOne(t *testing.T) {
	if got := Map(0, 4, func(i int) int { return i }); len(got) != 0 {
		t.Fatal("empty map should return empty slice")
	}
	if got := Map(1, 4, func(i int) int { return 7 }); got[0] != 7 {
		t.Fatal("single task wrong")
	}
}

func TestMapSerialFallback(t *testing.T) {
	got := Map(10, 1, func(i int) int { return i + 1 })
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestMapDefaultWorkers(t *testing.T) {
	var calls int64
	Map(50, 0, func(i int) int {
		atomic.AddInt64(&calls, 1)
		return i
	})
	if calls != 50 {
		t.Fatalf("calls = %d", calls)
	}
}

func TestMapEachIndexOnce(t *testing.T) {
	n := 1000
	seen := make([]int64, n)
	Map(n, 16, func(i int) struct{} {
		atomic.AddInt64(&seen[i], 1)
		return struct{}{}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d executed %d times", i, c)
		}
	}
}

func TestMapNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative n should panic")
		}
	}()
	Map(-1, 2, func(i int) int { return i })
}

func TestParallelMatchesSerial(t *testing.T) {
	fn := func(i int) int { return i*31 + 7 }
	serial := Map(200, 1, fn)
	para := Map(200, 16, fn)
	for i := range serial {
		if serial[i] != para[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func BenchmarkMapOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Map(64, 0, func(i int) int { return i })
	}
}
