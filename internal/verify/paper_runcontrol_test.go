package verify_test

// The paper-sized run-control tests live in the external test package: they
// build the paper instance through internal/eval, which reaches this package
// through the solve driver.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/eval"
	"github.com/uav-coverage/uavnet/internal/verify"
)

// TestCancellationPromptOnPaperInstance runs approAlg on the paper's Fig. 6
// configuration (n=3000, K=20, m=36) — minutes of work if left alone — and
// checks that cancellation tears the run down promptly and without leaking
// goroutines, returning a resumable best-so-far deployment.
func TestCancellationPromptOnPaperInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-sized instance")
	}
	in, err := eval.BuildInstance(eval.Params{})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	dep, err := core.Approx(ctx, in, core.Options{S: 3})
	elapsed := time.Since(start)
	// Drain latency is bounded by each worker's current chunk (16 subset
	// evaluations); give CI machines generous slack on top.
	if elapsed > 10*time.Second {
		t.Errorf("cancelled run took %s to drain", elapsed)
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if dep == nil || dep.Status != core.StatusStopped || dep.Checkpoint == nil {
		t.Fatalf("want a stopped, checkpointed deployment, got %+v", dep)
	}
	if dep.Checkpoint.Cursor <= 0 {
		t.Errorf("100ms of paper-sized work processed nothing (cursor %d)", dep.Checkpoint.Cursor)
	}
	// A non-empty partial result must itself be feasible.
	if dep.Served > 0 {
		if rep := verify.CheckDeployment(in, dep); !rep.OK() {
			t.Errorf("partial deployment violates the oracle: %s", rep)
		}
	}

	// All solver goroutines (workers and progress monitor) must be gone; the
	// runtime reaps them asynchronously, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancellation", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAlreadyCancelledContextIsImmediate is the acceptance bound from the
// run-control design: a context that is already cancelled must come back in
// milliseconds even on the paper-sized instance, because workers check the
// context before claiming any work.
func TestAlreadyCancelledContextIsImmediate(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-sized instance")
	}
	in, err := eval.BuildInstance(eval.Params{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	dep, err := core.Approx(ctx, in, core.Options{S: 3})
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if dep == nil || dep.Status != core.StatusStopped {
		t.Fatalf("want a stopped deployment, got %+v", dep)
	}
	// Instance precomputation is done by BuildInstance above; the solver call
	// itself only spins up workers that immediately drain.
	if elapsed > time.Second {
		t.Errorf("already-cancelled run took %s, want milliseconds", elapsed)
	}
}
