package chaos

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestScheduleReplaysFromSeed is the package's core contract: equal
// seeds and equal decision sequences produce bit-identical fault
// schedules — transport and filesystem alike.
func TestScheduleReplaysFromSeed(t *testing.T) {
	cfg := Config{
		Seed: 0xC0FFEE, Drop: 0.1, DropAfter: 0.05, Latency: 0.2,
		HTTPError: 0.15, Truncate: 0.1, TornWrite: 0.1, ENOSPC: 0.05,
		FsyncFail: 0.1, MaxLatency: 30 * time.Millisecond,
	}
	a, b := NewInjector(cfg), NewInjector(cfg)
	for i := 0; i < 500; i++ {
		fa, fb := a.NextTransportFault(), b.NextTransportFault()
		if fa != fb {
			t.Fatalf("transport schedule diverged at %d: %+v vs %+v", i, fa, fb)
		}
	}
	for i := 0; i < 500; i++ {
		wa, wb := a.nextAtomicWriteFault(), b.nextAtomicWriteFault()
		if wa != wb {
			t.Fatalf("write schedule diverged at %d: %+v vs %+v", i, wa, wb)
		}
		if a.nextSyncFault() != b.nextSyncFault() {
			t.Fatalf("sync schedule diverged at %d", i)
		}
	}
	if a.Counters() != b.Counters() {
		t.Fatalf("counters diverged: %+v vs %+v", a.Counters(), b.Counters())
	}
	// A different seed must not replay the same schedule.
	cfg.Seed++
	c := NewInjector(cfg)
	same := 0
	a2 := NewInjector(Config{Seed: 0xC0FFEE, Drop: 0.1, DropAfter: 0.05, Latency: 0.2,
		HTTPError: 0.15, Truncate: 0.1, MaxLatency: 30 * time.Millisecond})
	for i := 0; i < 200; i++ {
		if a2.NextTransportFault() == c.NextTransportFault() {
			same++
		}
	}
	if same == 200 {
		t.Fatal("distinct seeds produced identical schedules")
	}
}

// TestZeroConfigInjectsNothing: the zero plan is a pass-through.
func TestZeroConfigInjectsNothing(t *testing.T) {
	in := NewInjector(Config{Seed: 1})
	for i := 0; i < 200; i++ {
		if f := in.NextTransportFault(); f != (TransportFault{}) {
			t.Fatalf("zero config rolled a fault: %+v", f)
		}
		if w := in.nextAtomicWriteFault(); w != (WriteFault{}) {
			t.Fatalf("zero config rolled a write fault: %+v", w)
		}
	}
	if c := in.Counters(); c != (Counters{}) {
		t.Fatalf("zero config counted faults: %+v", c)
	}
}

func TestTransportFaults(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, strings.Repeat("x", 1024))
	}))
	defer srv.Close()

	get := func(in *Injector) (*http.Response, []byte, error) {
		t.Helper()
		resp, err := in.Client(nil).Get(srv.URL)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		body, rerr := io.ReadAll(resp.Body)
		return resp, body, rerr
	}

	t.Run("drop", func(t *testing.T) {
		in := NewInjector(Config{Seed: 1, Drop: 1})
		if _, _, err := get(in); err == nil || !strings.Contains(err.Error(), "dropped before send") {
			t.Fatalf("err = %v, want pre-send drop", err)
		}
	})
	t.Run("drop-after", func(t *testing.T) {
		in := NewInjector(Config{Seed: 1, DropAfter: 1})
		if _, _, err := get(in); err == nil || !strings.Contains(err.Error(), "awaiting response") {
			t.Fatalf("err = %v, want post-send drop", err)
		}
	})
	t.Run("http-error", func(t *testing.T) {
		in := NewInjector(Config{Seed: 1, HTTPError: 1})
		resp, _, err := get(in)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if resp.StatusCode < 400 {
			t.Fatalf("status = %d, want an injected error", resp.StatusCode)
		}
	})
	t.Run("truncate", func(t *testing.T) {
		in := NewInjector(Config{Seed: 1, Truncate: 1})
		_, body, err := get(in)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("read err = %v, want unexpected EOF", err)
		}
		if len(body) == 0 || len(body) >= 1024 {
			t.Fatalf("truncated body length = %d, want a strict prefix", len(body))
		}
	})
	t.Run("latency", func(t *testing.T) {
		var slept time.Duration
		cfg := Config{Seed: 1, Latency: 1, MaxLatency: 10 * time.Millisecond,
			Sleep: func(d time.Duration) { slept += d }}
		in := NewInjector(cfg)
		if _, _, err := get(in); err != nil {
			t.Fatalf("get: %v", err)
		}
		if slept <= 0 || slept > 10*time.Millisecond {
			t.Fatalf("slept = %v, want a spike in (0, 10ms]", slept)
		}
	})
}

func TestFaultyFS(t *testing.T) {
	dir := t.TempDir()
	data := []byte("0123456789abcdef")

	t.Run("torn-atomic-write-lies", func(t *testing.T) {
		in := NewInjector(Config{Seed: 1, TornWriteAt: 1})
		fs := in.FS(nil)
		path := filepath.Join(dir, "torn.bin")
		if err := fs.WriteFileAtomic(path, data); err != nil {
			t.Fatalf("torn write must report success, got %v", err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if len(got) != len(data)/2 {
			t.Fatalf("torn file holds %d bytes, want %d", len(got), len(data)/2)
		}
		// Only the scheduled write is torn; the next is clean.
		if err := fs.WriteFileAtomic(path, data); err != nil {
			t.Fatalf("clean write: %v", err)
		}
		if got, _ := os.ReadFile(path); len(got) != len(data) {
			t.Fatalf("second write torn too: %d bytes", len(got))
		}
	})
	t.Run("enospc", func(t *testing.T) {
		in := NewInjector(Config{Seed: 1, ENOSPC: 1})
		err := in.FS(nil).WriteFileAtomic(filepath.Join(dir, "full.bin"), data)
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("err = %v, want ENOSPC", err)
		}
	})
	t.Run("short-append-and-fsync", func(t *testing.T) {
		in := NewInjector(Config{Seed: 1, TornWrite: 1, FsyncFail: 1})
		w, err := in.FS(nil).AppendFile(filepath.Join(dir, "journal"))
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		defer w.Close()
		n, err := w.Write(data)
		if err == nil || !strings.Contains(err.Error(), "short write") {
			t.Fatalf("short append err = %v", err)
		}
		if n != len(data)/2 {
			t.Fatalf("short append wrote %d, want %d", n, len(data)/2)
		}
		if err := w.Sync(); err == nil || !strings.Contains(err.Error(), "fsync failed") {
			t.Fatalf("sync err = %v", err)
		}
	})
}

func TestCrashPoint(t *testing.T) {
	var crashed []string
	in := NewInjector(Config{
		CrashLabel: "worker.ran", CrashAt: 2,
		Crash: func(label string) { crashed = append(crashed, label) },
	})
	in.CrashPoint("worker.leased") // wrong label: ignored
	in.CrashPoint("worker.ran")    // hit 1 of 2
	if len(crashed) != 0 {
		t.Fatalf("crashed early: %v", crashed)
	}
	in.CrashPoint("worker.ran") // hit 2 of 2 → crash
	if len(crashed) != 1 || crashed[0] != "worker.ran" {
		t.Fatalf("crashes = %v, want one at worker.ran", crashed)
	}
	in.CrashPoint("worker.ran") // past the target: no re-crash
	if len(crashed) != 1 {
		t.Fatalf("crashed again: %v", crashed)
	}
	if c := in.Counters(); c.Crashes != 1 {
		t.Fatalf("crash counter = %d, want 1", c.Crashes)
	}
	// A nil injector is a safe no-op hook.
	var none *Injector
	none.CrashPoint("anything")
}

func TestParseFlag(t *testing.T) {
	cfg, err := ParseFlag("seed=7,drop=0.05,latency=0.2,maxlat=80ms,httperr=0.1,trunc=0.02,torn=0.01,tornat=3,enospc=0.01,fsync=0.01,crash=worker.ran@2")
	if err != nil {
		t.Fatalf("ParseFlag: %v", err)
	}
	if cfg.Seed != 7 || cfg.Drop != 0.05 || cfg.MaxLatency != 80*time.Millisecond ||
		cfg.TornWriteAt != 3 || cfg.CrashLabel != "worker.ran" || cfg.CrashAt != 2 {
		t.Fatalf("parsed config = %+v", cfg)
	}
	if cfg2, err := ParseFlag(""); err != nil || cfg2.Seed != 0 || cfg2.Drop != 0 || cfg2.CrashAt != 0 {
		t.Fatalf("empty spec = %+v, %v", cfg2, err)
	}
	for _, bad := range []string{"drop=2", "nope=1", "drop", "crash=worker.ran", "seed=x"} {
		if _, err := ParseFlag(bad); err == nil {
			t.Fatalf("ParseFlag(%q) accepted", bad)
		}
	}
}

// FuzzParseFlag runs the -chaos grammar: whatever it accepts must be a
// plan the injector can honor — every probability in [0,1] (a NaN would
// silently disable its fault) and no negative counts. The seeds run under
// plain go test.
func FuzzParseFlag(f *testing.F) {
	for _, seed := range []string{
		"seed=7,drop=0.05,dropafter=0.02,latency=0.2,maxlat=80ms,httperr=0.1,trunc=0.02,torn=0.01,tornat=3,enospc=0.01,fsync=0.01,crash=worker.ran@2",
		"drop=NaN,torn=nan,tornat=-3,crash=worker.ran@-1",
		"drop=NaN",
		"fsync=-nan",
		"latency=+Inf",
		"tornat=-3",
		"crash=worker.ran@-1",
		"drop=1,trunc=0,enospc=0x1p-3",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cfg, err := ParseFlag(s)
		if err != nil {
			return
		}
		for name, p := range map[string]float64{
			"drop": cfg.Drop, "dropafter": cfg.DropAfter, "latency": cfg.Latency,
			"httperr": cfg.HTTPError, "trunc": cfg.Truncate, "torn": cfg.TornWrite,
			"enospc": cfg.ENOSPC, "fsync": cfg.FsyncFail,
		} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("ParseFlag(%q) accepted %s=%v, outside [0,1]", s, name, p)
			}
		}
		if cfg.TornWriteAt < 0 || cfg.CrashAt < 0 {
			t.Fatalf("ParseFlag(%q) accepted negative counts: tornat=%d crash@%d", s, cfg.TornWriteAt, cfg.CrashAt)
		}
	})
}
