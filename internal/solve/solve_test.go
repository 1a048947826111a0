package solve

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/portfolio"
	"github.com/uav-coverage/uavnet/internal/verify"
)

func testInstance(t *testing.T) *core.Instance {
	t.Helper()
	sc, err := verify.RandomScenario(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// stopped returns the checkpoint of a run cut short before it could finish.
func stopped(t *testing.T, in *core.Instance, opts core.Options) *Checkpoint {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, cp, err := Run(ctx, in, opts, 0, nil)
	if cp == nil {
		t.Fatalf("stopped %q run returned no checkpoint: %v", opts.Solver, err)
	}
	return cp
}

func TestCheckpointRoundTripAndFrontier(t *testing.T) {
	in := testInstance(t)
	for _, opts := range []core.Options{
		{S: 2, Workers: 1},
		{S: 2, Solver: "portfolio", SolverBudget: 40, Seed: 3},
	} {
		cp := stopped(t, in, opts)
		data, err := cp.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		// The envelope adds nothing: the bytes are the member's own.
		var member []byte
		if cp.Enum != nil {
			member, err = cp.Enum.Marshal()
		} else {
			member, err = cp.Portfolio.Marshal()
		}
		if err != nil || !bytes.Equal(data, member) {
			t.Fatalf("%q: envelope bytes differ from the member's (err %v)", opts.Solver, err)
		}
		back, err := Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		if (back.Enum == nil) != (cp.Enum == nil) {
			t.Fatalf("%q: Unmarshal picked the wrong kind", opts.Solver)
		}
		done, total := back.Frontier()
		if done != 0 || total <= 0 {
			t.Errorf("%q: frontier of a run stopped before any work = %d / %d", opts.Solver, done, total)
		}
	}
	pcp := &Checkpoint{Portfolio: &portfolio.Checkpoint{Budget: 10, Members: []portfolio.SolverState{{Evals: 3}, {Evals: 4}}}}
	if done, total := pcp.Frontier(); done != 7 || total != 20 {
		t.Errorf("portfolio frontier = %d / %d, want 7 / 20", done, total)
	}
}

func TestEnvelopeCarriesExactlyOneKind(t *testing.T) {
	in := testInstance(t)
	both := &Checkpoint{Enum: &core.Checkpoint{}, Portfolio: &portfolio.Checkpoint{}}
	for _, cp := range []*Checkpoint{{}, both} {
		if _, err := cp.Marshal(); err == nil {
			t.Errorf("Marshal accepted %+v", cp)
		}
		if _, _, err := Run(context.Background(), in, core.Options{S: 2}, 0, cp); err == nil {
			t.Errorf("Run accepted resume %+v", cp)
		}
	}
}

func TestRunRejectsOptionsResume(t *testing.T) {
	in := testInstance(t)
	_, _, err := Run(context.Background(), in, core.Options{S: 2, Resume: &core.Checkpoint{}}, 0, nil)
	if err == nil || !strings.Contains(err.Error(), "Options.Resume") {
		t.Errorf("err = %v, want a pointer to the resume argument", err)
	}
}
