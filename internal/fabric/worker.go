package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/chaos"
)

// ErrCoordinatorUnreachable marks a worker that gave up because the
// coordinator answered nothing — not even an error status — for longer
// than its idle budget. Callers (cmd/fabric) branch on it for a distinct
// exit code: an unreachable coordinator is an operational problem, not a
// sweep failure.
var ErrCoordinatorUnreachable = errors.New("fabric: coordinator unreachable")

// WorkerConfig sizes one worker process.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Name attributes the worker in coordinator stats and logs.
	Name string
	// TrialWorkers caps the shard-internal trial pool; 0 selects one per
	// core.
	TrialWorkers int
	// Poll is the wait between lease polls when no shard is free; 0
	// selects 200ms.
	Poll time.Duration
	// MaxFailures bounds consecutive shard failures (a persistently
	// failing run or upload) before the worker gives up; 0 selects 30.
	MaxFailures int
	// MaxIdle bounds how long the worker tolerates zero successful
	// coordinator contact before exiting with ErrCoordinatorUnreachable;
	// 0 selects 2 minutes.
	MaxIdle time.Duration
	// Retry is the shared retry/backoff policy for every coordinator
	// call (lease / renew / complete); nil selects chaos.Policy defaults
	// (5 attempts, 50ms base, 2s cap, full jitter).
	Retry *chaos.Policy
	// Chaos, when non-nil, injects the worker's seeded fault plan: its
	// transport faults wrap Client and its crash points fire at
	// worker.leased / worker.ran / worker.uploaded.
	Chaos *chaos.Injector
	// Client substitutes the HTTP client; nil selects a default with sane
	// timeouts.
	Client *http.Client
	// Log, when non-nil, receives one line per worker event.
	Log func(format string, args ...any)
}

func (cfg *WorkerConfig) fill() {
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * time.Millisecond
	}
	if cfg.MaxFailures <= 0 {
		cfg.MaxFailures = 30
	}
	if cfg.MaxIdle <= 0 {
		cfg.MaxIdle = 2 * time.Minute
	}
	if cfg.Retry == nil {
		cfg.Retry = &chaos.Policy{}
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Minute}
	}
	if cfg.Chaos != nil {
		cfg.Client = cfg.Chaos.Client(cfg.Client)
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}
}

// Work is the resumable worker loop: lease a shard, run it through the
// engine under a heartbeat, upload the canonical bytes, repeat — until
// the coordinator reports the sweep done (nil), failed (error), the
// context is cancelled, or the coordinator stays unreachable past
// MaxIdle (ErrCoordinatorUnreachable). Losing a lease mid-run is not an
// error: the worker abandons the shard (someone else holds it now) and
// asks for the next.
func Work(ctx context.Context, cfg WorkerConfig) error {
	cfg.fill()
	if cfg.Coordinator == "" {
		return fmt.Errorf("fabric: worker needs a coordinator URL")
	}
	failures := 0
	lastContact := time.Now()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, err := postLease(ctx, cfg)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if idle := time.Since(lastContact); idle > cfg.MaxIdle {
				return fmt.Errorf("%w: no contact for %v (budget %v): %v", ErrCoordinatorUnreachable, idle.Round(time.Second), cfg.MaxIdle, err)
			}
			sleep(ctx, cfg.Poll)
			continue
		}
		lastContact = time.Now()
		switch lease.Status {
		case StatusDone:
			cfg.Log("sweep done")
			return nil
		case StatusFailed:
			return fmt.Errorf("fabric: sweep failed: %s", lease.Error)
		case StatusWait:
			sleep(ctx, cfg.Poll)
		case StatusShard:
			if err := runLease(ctx, cfg, lease); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				failures++
				if failures >= cfg.MaxFailures {
					return err
				}
				cfg.Log("shard %s: %v (continuing)", lease.Shard.ID, err)
				sleep(ctx, cfg.Poll)
			} else {
				failures = 0
				lastContact = time.Now()
			}
		default:
			return fmt.Errorf("fabric: coordinator answered unknown lease status %q", lease.Status)
		}
	}
}

// runLease executes one leased shard under a heartbeat and uploads its
// bytes. A lost lease (heartbeat answered 410) cancels the run and
// returns nil — abandonment, not failure.
func runLease(ctx context.Context, cfg WorkerConfig, lease LeaseResponse) error {
	sh := *lease.Shard
	cfg.Log("leased shard %s (%s n=%d trials [%d,%d))", sh.ID, sh.Protocol, sh.N, sh.Lo, sh.Hi)
	cfg.Chaos.CrashPoint("worker.leased")

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	var lost bool
	var mu sync.Mutex
	stopHeartbeat := heartbeat(runCtx, cfg, lease, func() {
		mu.Lock()
		lost = true
		mu.Unlock()
		cancelRun()
	})

	canonical, err := RunShard(runCtx, sh, lease.Scenario, cfg.TrialWorkers)
	stopHeartbeat()
	mu.Lock()
	abandoned := lost
	mu.Unlock()
	if err != nil {
		if abandoned && ctx.Err() == nil {
			cfg.Log("shard %s: lease lost, abandoning", sh.ID)
			return nil
		}
		return err
	}
	cfg.Chaos.CrashPoint("worker.ran")

	// The lease may have lapsed during a long trial; upload anyway — late
	// completions with identical bytes are merged idempotently.
	if err := postComplete(ctx, cfg, lease.LeaseID, canonical); err != nil {
		return err
	}
	cfg.Chaos.CrashPoint("worker.uploaded")
	cfg.Log("shard %s complete (%d records)", sh.ID, sh.Trials())
	return nil
}

// heartbeat renews the lease at TTL/3 until stopped; onLost fires when
// the coordinator answers 410 (the lease lapsed or was superseded).
// Transient network errors are retried through the shared policy and
// otherwise ignored — the run continues and a late completion is still
// acceptable.
func heartbeat(ctx context.Context, cfg WorkerConfig, lease LeaseResponse, onLost func()) (stop func()) {
	interval := time.Duration(lease.TTLMillis) * time.Millisecond / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	hbCtx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				if gone := postRenew(hbCtx, cfg, lease.LeaseID); gone {
					onLost()
					return
				}
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// postRenew sends one heartbeat through the retry policy, reporting
// whether the lease is gone (410). Errors that outlive the policy are
// swallowed: the next tick tries again, and the worst case — the lease
// silently lapsing — is exactly what the lease protocol already absorbs.
func postRenew(ctx context.Context, cfg WorkerConfig, leaseID string) (gone bool) {
	cfg.Retry.Do(ctx, func(int) error {
		code, retryAfter, err := postJSON(ctx, cfg.Client, cfg.Coordinator+"/v1/renew", RenewRequest{LeaseID: leaseID}, nil)
		if err != nil {
			return err
		}
		switch code {
		case http.StatusOK:
			return nil
		case http.StatusGone:
			gone = true
			return nil
		default:
			return chaos.WithRetryAfter(fmt.Errorf("fabric: renew answered %d", code), retryAfter)
		}
	})
	return gone
}

// RunShard executes one shard's trial range through repro.RunCell,
// returning the canonical record bytes — the bytes Experiment.Run and a
// service cold run record for those trials, in trial order. Seeds are
// repro.TrialSeed(n, t) as everywhere else, so the bytes are a pure
// function of the shard, whatever worker runs it and at whatever
// parallelism.
func RunShard(ctx context.Context, sh Shard, sc repro.Scenario, workers int) ([]byte, error) {
	p, err := repro.NewProtocol(sh.Protocol)
	if err != nil {
		return nil, err
	}
	return repro.RunCell(ctx, p, sc, sh.N, sh.Lo, sh.Hi, workers)
}

// postLease asks the coordinator for work through the retry policy:
// transport errors and retryable statuses (429, 5xx) back off with full
// jitter honoring Retry-After; client errors are terminal.
func postLease(ctx context.Context, cfg WorkerConfig) (LeaseResponse, error) {
	var resp LeaseResponse
	err := cfg.Retry.Do(ctx, func(int) error {
		code, retryAfter, err := postJSON(ctx, cfg.Client, cfg.Coordinator+"/v1/lease", LeaseRequest{Worker: cfg.Name}, &resp)
		if err != nil {
			return err
		}
		switch {
		case code == http.StatusOK:
			return nil
		case code == http.StatusTooManyRequests || code >= 500:
			return chaos.WithRetryAfter(fmt.Errorf("fabric: lease request answered %d", code), retryAfter)
		default:
			return chaos.Permanent(fmt.Errorf("fabric: lease request answered %d", code))
		}
	})
	return resp, err
}

// postComplete uploads a shard's canonical bytes, gzipped, through the
// retry policy. A 409 (determinism violation) and a 410 (the lease is
// unknown to this coordinator) are terminal.
func postComplete(ctx context.Context, cfg WorkerConfig, leaseID string, canonical []byte) error {
	gz, err := gzipBytes(canonical)
	if err != nil {
		return err
	}
	url := fmt.Sprintf("%s/v1/complete?lease_id=%s", cfg.Coordinator, leaseID)
	return cfg.Retry.Do(ctx, func(int) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(gz))
		if err != nil {
			return chaos.Permanent(err)
		}
		req.Header.Set("Content-Type", "application/gzip")
		resp, err := cfg.Client.Do(req)
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			return nil
		case resp.StatusCode == http.StatusConflict:
			return chaos.Permanent(fmt.Errorf("fabric: upload rejected: %s", bytes.TrimSpace(body)))
		case resp.StatusCode == http.StatusGone:
			return chaos.Permanent(fmt.Errorf("fabric: upload lease unknown: %s", bytes.TrimSpace(body)))
		default:
			return chaos.WithRetryAfter(
				fmt.Errorf("fabric: upload answered %d: %s", resp.StatusCode, bytes.TrimSpace(body)),
				retryAfterHeader(resp))
		}
	})
}

// postJSON posts v as JSON and decodes a 200 reply into out (when
// non-nil), returning the status code and any Retry-After the server
// sent alongside a refusal.
func postJSON(ctx context.Context, client *http.Client, url string, v, out any) (int, time.Duration, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return 0, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		return resp.StatusCode, 0, json.NewDecoder(resp.Body).Decode(out)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	return resp.StatusCode, retryAfterHeader(resp), nil
}

// retryAfterHeader parses a delay-seconds Retry-After; absent or
// unparsable reads as zero (no floor).
func retryAfterHeader(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// sleep waits d or until ctx is cancelled.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
