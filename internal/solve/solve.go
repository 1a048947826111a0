// Package solve is the one driver behind every approAlg run. Three engines
// search the paper's C(m, s) anchor subsets — the enumeration (core.Approx),
// the in-process shard pool (core.RunShards) and the metaheuristic portfolio
// (portfolio.Race) — and stopped runs freeze in two checkpoint kinds. Run
// alone picks the engine, the pool, and the checkpoint kind; Validate alone
// holds the cross-option rules. The facade re-exports both, and the server,
// the CLIs and the evaluation harness call them (DESIGN.md §10).
package solve

import (
	"context"
	"encoding/json"
	"fmt"

	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/portfolio"
	"github.com/uav-coverage/uavnet/internal/verify"
)

// Checkpoint is the resumable state of a stopped run: exactly one field is
// set, matching the engine that wrote it. Both kinds carry an "algorithm"
// tag ("approAlg" or "portfolio") in their JSON form, which is what
// Unmarshal dispatches on; the envelope itself adds no bytes.
type Checkpoint struct {
	Enum      *core.Checkpoint
	Portfolio *portfolio.Checkpoint
}

// Unmarshal parses a checkpoint of either kind, rejecting an unknown or
// missing algorithm tag by name. Each kind is then decoded strictly by its
// own package (unknown fields and trailing bytes are errors).
func Unmarshal(data []byte) (*Checkpoint, error) {
	var tag struct {
		Algorithm string `json:"algorithm"`
	}
	if err := json.Unmarshal(data, &tag); err != nil {
		return nil, fmt.Errorf("solve: bad checkpoint: %w", err)
	}
	switch tag.Algorithm {
	case "approAlg":
		cp, err := core.UnmarshalCheckpoint(data)
		if err != nil {
			return nil, err
		}
		return &Checkpoint{Enum: cp}, nil
	case "portfolio":
		cp, err := portfolio.UnmarshalCheckpoint(data)
		if err != nil {
			return nil, err
		}
		return &Checkpoint{Portfolio: cp}, nil
	}
	return nil, fmt.Errorf("solve: checkpoint has unknown algorithm %q (want \"approAlg\" or \"portfolio\")", tag.Algorithm)
}

// Marshal returns the set member's own encoding, byte for byte.
func (c *Checkpoint) Marshal() ([]byte, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	if c.Enum != nil {
		return c.Enum.Marshal()
	}
	return c.Portfolio.Marshal()
}

// Frontier reports how far the frozen run got: the enumeration cursor and
// total, or the portfolio's evaluations spent and budget summed over its
// members.
func (c *Checkpoint) Frontier() (done, total int64) {
	if c.Enum != nil {
		return c.Enum.Cursor, c.Enum.Total
	}
	for _, m := range c.Portfolio.Members {
		done += m.Evals
		total += c.Portfolio.Budget
	}
	return done, total
}

// check enforces the one-member invariant.
func (c *Checkpoint) check() error {
	if c == nil || (c.Enum == nil) == (c.Portfolio == nil) {
		return fmt.Errorf("solve: a checkpoint carries exactly one of an enumeration or a portfolio state")
	}
	return nil
}

// SolverNames lists every Options.Solver value: "enum" (the paper's
// enumeration, also selected by the empty string), the four portfolio
// members, and "portfolio" to race all four.
func SolverNames() []string {
	return append([]string{"enum"}, append(portfolio.Members(), "portfolio")...)
}

// Validate rejects option combinations no engine can run. shards is the
// shard-pool width (0 or 1 means no pool). The rules are the only
// cross-option checks in the repository; front ends add checks on their own
// inputs only. opts.RequiredCells stands for a gateway constraint.
func Validate(opts core.Options, shards int) error {
	if opts.Resume != nil {
		return fmt.Errorf("the Options.Resume field must be nil: pass the checkpoint to the driver instead")
	}
	gateway := len(opts.RequiredCells) > 0
	if opts.SolverIsEnum() {
		switch {
		case opts.SolverBudget != 0:
			return fmt.Errorf("a solver budget needs a metaheuristic solver (anneal | tabu | grasp | genetic | portfolio); the enumeration is capped by max subsets")
		case shards > 1 && gateway:
			return fmt.Errorf("shards and a gateway are incompatible: gateway planning runs one unsharded enumeration")
		}
		return nil
	}
	if _, err := portfolio.SolverMembers(opts.Solver); err != nil {
		return fmt.Errorf("unknown solver %q (want one of %v)", opts.Solver, SolverNames())
	}
	switch {
	case shards > 1:
		return fmt.Errorf("shards and solver %q are incompatible: the metaheuristics do not enumerate", opts.Solver)
	case opts.MaxSubsets != 0:
		return fmt.Errorf("max subsets and solver %q are incompatible: cap work with a solver budget instead", opts.Solver)
	case gateway:
		return fmt.Errorf("a gateway and solver %q are incompatible: gateway planning needs the enumeration's required-cell filter", opts.Solver)
	}
	return nil
}

// Run solves the instance under opts and returns the deployment together
// with the checkpoint of a run that stopped early (nil once complete).
//
// opts.Solver picks the engine: the enumeration, or the portfolio for a
// metaheuristic name. An enumeration with shards > 1 and no resume runs on
// the in-process shard pool; a resumed enumeration always runs unsharded —
// a pool's stopped run leaves one merged checkpoint, and the resumed result
// is byte-identical either way. resume must be of the kind opts selects.
// opts.Resume must be nil: resume goes through this argument only.
//
// Run control follows the engines: on cancellation the best-so-far
// deployment (Status StatusStopped; nil for a portfolio that found nothing
// yet) comes back with ctx.Err() and a resumable checkpoint. Every
// portfolio deployment is re-checked by verify.CheckDeployment before it is
// returned; the enumeration is feasible by construction and is not
// re-checked.
func Run(ctx context.Context, in *core.Instance, opts core.Options, shards int, resume *Checkpoint) (*core.Deployment, *Checkpoint, error) {
	if err := Validate(opts, shards); err != nil {
		return nil, nil, err
	}
	if resume != nil {
		if err := resume.check(); err != nil {
			return nil, nil, err
		}
	}
	if !opts.SolverIsEnum() {
		var from *portfolio.Checkpoint
		if resume != nil {
			if from = resume.Portfolio; from == nil {
				return nil, nil, fmt.Errorf("checkpoint is an enumeration run; the options select solver %q", opts.Solver)
			}
		}
		dep, pcp, err := portfolio.Race(ctx, in, opts, from)
		var cp *Checkpoint
		if pcp != nil {
			cp = &Checkpoint{Portfolio: pcp}
		}
		if dep != nil {
			if rep := verify.CheckDeployment(in, dep); !rep.OK() {
				// Unreachable by construction — the portfolio finalizes
				// through the exact Algorithm 2 pipeline — but the
				// feasibility guarantee is part of the API, so it is
				// enforced, not assumed.
				return nil, cp, fmt.Errorf("solve: portfolio produced an infeasible deployment: %v", rep)
			}
		}
		return dep, cp, err
	}

	if resume != nil {
		if opts.Resume = resume.Enum; opts.Resume == nil {
			return nil, nil, fmt.Errorf("checkpoint is a portfolio run (solver %q); the options select the enumeration", resume.Portfolio.Solver)
		}
	}
	var dep *core.Deployment
	var err error
	if shards > 1 && resume == nil {
		dep, err = core.RunShards(ctx, in, opts, shards)
	} else {
		dep, err = core.Approx(ctx, in, opts)
	}
	if dep == nil || dep.Checkpoint == nil {
		return dep, nil, err
	}
	return dep, &Checkpoint{Enum: dep.Checkpoint}, err
}
