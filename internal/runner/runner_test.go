package runner

import (
	"context"
	"errors"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapMatchesSerialLoop(t *testing.T) {
	fn := func(i int) uint64 { return DeriveSeed(42, i) * uint64(i+1) }
	want := make([]uint64, 100)
	for i := range want {
		want[i] = fn(i)
	}
	for _, workers := range []int{1, 2, 4, 16} {
		got, err := Map(context.Background(), len(want), fn, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: item %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapEmptyAndSmall(t *testing.T) {
	got, err := Map(context.Background(), 0, func(i int) int { return i }, Options{})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v, %v", got, err)
	}
	got, err = Map(context.Background(), 1, func(i int) int { return i + 7 }, Options{Workers: 32})
	if err != nil || len(got) != 1 || got[0] != 7 {
		t.Fatalf("single item: %v, %v", got, err)
	}
}

func TestMapCancellationStopsWorkers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	const total = 1000
	_, err := Map(ctx, total, func(i int) int {
		if started.Add(1) == 3 {
			cancel()
		}
		return i
	}, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Workers may finish the item they already hold, but must not start
	// fresh ones after cancellation: far fewer than total run.
	if n := started.Load(); n >= total {
		t.Fatalf("all %d items ran despite cancellation", n)
	}
}

func TestMapPanicDoesNotDeadlock(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := Map(context.Background(), 50, func(i int) int {
			if i == 10 {
				panic("boom")
			}
			return i
		}, Options{Workers: 4})
		done <- err
	}()
	select {
	case err := <-done:
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want *PanicError", err)
		}
		if pe.Index != 10 || pe.Value != "boom" {
			t.Fatalf("PanicError = %+v", pe)
		}
		if len(pe.Stack) == 0 {
			t.Fatal("panic stack not captured")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Map deadlocked after a trial panic")
	}
}

func TestMapPanicAbandonsRemainingItems(t *testing.T) {
	var ran atomic.Int64
	const total = 10000
	_, err := Map(context.Background(), total, func(i int) int {
		ran.Add(1)
		if i == 0 {
			panic("early")
		}
		// Real trials take time; ~10µs each keeps the healthy worker from
		// draining all items while the panicking one unwinds.
		for start := time.Now(); time.Since(start) < 10*time.Microsecond; {
		}
		return i
	}, Options{Workers: 2})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := ran.Load(); n >= total {
		t.Fatalf("all %d items ran despite an early panic", n)
	}
}

func TestForEachProgress(t *testing.T) {
	var calls []int
	var sum atomic.Int64
	err := ForEach(context.Background(), 20, func(i int) {
		sum.Add(int64(i))
	}, Options{
		Workers:  4,
		Progress: func(done, total int) { calls = append(calls, done) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 190 {
		t.Fatalf("sum = %d, want 190", sum.Load())
	}
	if len(calls) != 20 {
		t.Fatalf("progress called %d times, want 20", len(calls))
	}
	seen := make(map[int]bool)
	for _, c := range calls {
		if c < 1 || c > 20 || seen[c] {
			t.Fatalf("bad progress sequence: %v", calls)
		}
		seen[c] = true
	}
}

func TestDeriveSeedDistinct(t *testing.T) {
	seen := make(map[uint64]int)
	for base := uint64(0); base < 4; base++ {
		for i := 0; i < 1000; i++ {
			s := DeriveSeed(base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: base=%d i=%d repeats value %d", base, i, prev)
			}
			seen[s] = i
		}
	}
	if DeriveSeed(1, 5) != DeriveSeed(1, 5) {
		t.Fatal("DeriveSeed not deterministic")
	}
}

// TestSpeedupOnMultiCore checks the point of the whole package: on a
// machine with 4+ cores, fanning CPU-bound trials across the pool must beat
// a single worker by a wide margin. Timing-sensitive, so skipped under
// -short and on small machines.
func TestSpeedupOnMultiCore(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	if os.Getenv("CI") != "" {
		// Shared CI runners execute other packages' tests concurrently with
		// this one, so the serial/parallel wall-clock ratio is noise there.
		t.Skip("timing test skipped on CI runners")
	}
	cores := runtime.NumCPU()
	if cores < 4 {
		t.Skipf("needs 4+ cores, have %d", cores)
	}
	spin := func(i int) uint64 {
		// ~10ms of pure CPU work per trial, seeded by the index.
		z := DeriveSeed(9, i)
		for k := 0; k < 4_000_000; k++ {
			z = z*6364136223846793005 + 1442695040888963407
		}
		return z
	}
	const trials = 64
	measure := func(workers int) (time.Duration, []uint64) {
		start := time.Now()
		out, err := Map(context.Background(), trials, spin, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start), out
	}
	serialDur, serialOut := measure(1)
	parDur, parOut := measure(0) // all cores
	for i := range serialOut {
		if serialOut[i] != parOut[i] {
			t.Fatalf("trial %d result differs between worker counts", i)
		}
	}
	speedup := float64(serialDur) / float64(parDur)
	t.Logf("serial %v, parallel %v on %d cores: %.2fx", serialDur, parDur, cores, speedup)
	if speedup < 2 {
		t.Errorf("speedup %.2fx < 2x on %d cores", speedup, cores)
	}
}

func TestWorkersDefaulting(t *testing.T) {
	if w := (Options{}).workers(100); w < 1 {
		t.Fatalf("default workers = %d", w)
	}
	if w := (Options{Workers: 8}).workers(3); w != 3 {
		t.Fatalf("workers not capped at total: %d", w)
	}
	if w := (Options{Workers: -5}).workers(2); w < 1 || w > 2 {
		t.Fatalf("negative workers handled badly: %d", w)
	}
}
