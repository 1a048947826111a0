package portfolio

import (
	"encoding/json"
	"fmt"

	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/strictjson"
)

// SolverState freezes one portfolio member. Together with the run options it
// is the member's complete state: the search trajectory is a pure function of
// (seed, step), so restoring the RNG word, the incumbent/best pair, and the
// member-specific Extra blob makes the resumed member continue exactly the
// interrupted trajectory — a cancelled-then-resumed race is byte-identical to
// an uninterrupted one.
type SolverState struct {
	// Name is the member's canonical name.
	Name string `json:"name"`
	// Steps and Evals are the member's step and evaluation counters.
	Steps int64 `json:"steps"`
	Evals int64 `json:"evals"`
	// RNG is the member's splitmix64 state word.
	RNG uint64 `json:"rng"`
	// Current and CurServed are the incumbent subset and its score; an
	// absent Current means the member had not seeded yet (or was between
	// GRASP restarts).
	Current   []int `json:"current,omitempty"`
	CurServed int   `json:"cur_served"`
	// Best and BestServed are the best feasible subset seen and its score;
	// BestServed is -1 while none has been found.
	Best       []int `json:"best,omitempty"`
	BestServed int   `json:"best_served"`
	// Extra is the member-specific memory: the tabu ring, the genetic
	// population, the GRASP stall counter. Absent for memoryless members.
	Extra json.RawMessage `json:"extra,omitempty"`
}

// Checkpoint freezes a stopped portfolio race so a later run can resume it
// and finish with a deployment byte-identical to an uninterrupted run (the
// portfolio counterpart of core.Checkpoint; see SolverState for why that
// works). It refuses to resume under any differing option, mirroring the
// enumeration checkpoint's field-by-field validation.
type Checkpoint struct {
	// Algorithm is always "portfolio"; resuming rejects anything else.
	Algorithm string `json:"algorithm"`
	// ScenarioFingerprint guards against resuming on a different scenario
	// (Instance.Fingerprint, so aggregated instances bind their demand grid).
	ScenarioFingerprint uint64 `json:"scenario_fingerprint"`
	// S is the effective anchor-subset size.
	S int `json:"s"`
	// Seed, Solver, Budget, DisablePrune and GroundLeftovers echo the
	// options that shape every member's trajectory; any difference would
	// silently change the result, so resuming requires an exact match.
	Seed            int64  `json:"seed"`
	Solver          string `json:"solver"`
	Budget          int64  `json:"budget"`
	DisablePrune    bool   `json:"disable_prune,omitempty"`
	GroundLeftovers bool   `json:"ground_leftovers,omitempty"`
	// Members holds one frozen state per racing member, in canonical order.
	Members []SolverState `json:"members"`
}

// Marshal serializes the checkpoint as indented JSON.
func (c *Checkpoint) Marshal() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// UnmarshalCheckpoint parses a checkpoint previously produced by Marshal.
// Unknown fields and trailing bytes are rejected, mirroring
// core.UnmarshalCheckpoint: a field this version cannot interpret would
// otherwise be dropped silently, and the resumed race would diverge from the
// frozen one with no diagnostic. (The member-specific Extra blob is exempt
// by construction — it round-trips as raw JSON and each member validates its
// own.)
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := strictjson.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("portfolio: bad checkpoint: %w", err)
	}
	if c.Algorithm != "portfolio" {
		return nil, fmt.Errorf("portfolio: checkpoint is for algorithm %q, not portfolio", c.Algorithm)
	}
	return &c, nil
}

// validate rejects a checkpoint that was not produced by an identical run.
func (c *Checkpoint) validate(in *core.Instance, s int, opts core.Options, solver string, budget int64, members []string) error {
	mismatch := func(field string, got, want any) error {
		return fmt.Errorf("portfolio: checkpoint does not match this run: %s is %v, checkpoint has %v", field, got, want)
	}
	if c.Algorithm != "portfolio" {
		return fmt.Errorf("portfolio: checkpoint is for algorithm %q, not portfolio", c.Algorithm)
	}
	if fp := in.Fingerprint(); fp != c.ScenarioFingerprint {
		return mismatch("scenario fingerprint", fmt.Sprintf("%016x", fp), fmt.Sprintf("%016x", c.ScenarioFingerprint))
	}
	if s != c.S {
		return mismatch("s", s, c.S)
	}
	if opts.Seed != c.Seed {
		return mismatch("seed", opts.Seed, c.Seed)
	}
	if solver != c.Solver {
		return mismatch("solver", solver, c.Solver)
	}
	if budget != c.Budget {
		return mismatch("solver budget", budget, c.Budget)
	}
	if opts.DisablePrune != c.DisablePrune {
		return mismatch("disable-prune", opts.DisablePrune, c.DisablePrune)
	}
	if opts.GroundLeftovers != c.GroundLeftovers {
		return mismatch("ground-leftovers", opts.GroundLeftovers, c.GroundLeftovers)
	}
	if len(c.Members) != len(members) {
		return mismatch("member count", len(members), len(c.Members))
	}
	for i, name := range members {
		if c.Members[i].Name != name {
			return mismatch("member", name, c.Members[i].Name)
		}
		if c.Members[i].Evals > budget {
			return fmt.Errorf("portfolio: checkpoint member %q spent %d evaluations, over the %d budget", name, c.Members[i].Evals, budget)
		}
	}
	return nil
}
