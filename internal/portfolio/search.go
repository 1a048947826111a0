package portfolio

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/graph"
)

// infeasibleServed is the score of an admissible subset the evaluator still
// rejects (empty greedy selection or q_j > K after relaying): worse than any
// feasible score, so such incumbents are abandoned at the first feasible move.
const infeasibleServed = -1

// search is the state every member shares: the problem view, the exact
// evaluator, the member's own RNG, the evaluation budget, and the
// incumbent/best bookkeeping. Members embed it and add their own memory.
type search struct {
	p   *problem
	ev  *core.SubsetEvaluator
	rng *rand.Rand
	src *splitmix

	budget int64 // evaluation budget (total, incl. spent)
	steps  int64 // Step calls completed

	cur        []int
	curServed  int
	best       []int
	bestServed int

	buf []int // move proposal buffer
	// moveOut/moveIn are the cells the last proposal removed and added.
	moveOut, moveIn int
}

// stepCap bounds Step calls so a member whose proposals keep failing (and
// thus spend no budget) still terminates; each successful step costs at
// least one evaluation, so the cap never cuts a healthy search short.
func (s *search) stepCap() int64 { return 2*s.budget + 128 }

func newSearch(p *problem, ev *core.SubsetEvaluator, seed int64, member int, budget int64) *search {
	rng, src := newMemberRNG(seed, member)
	return &search{
		p: p, ev: ev, rng: rng, src: src,
		budget:     budget,
		bestServed: infeasibleServed,
		curServed:  infeasibleServed,
	}
}

// remaining returns how many evaluations the member may still spend.
func (s *search) remaining() int64 { return s.budget - s.ev.Evaluations() }

// evaluate scores one admissible subset through the exact per-subset pipeline
// and folds it into the best-so-far (strict improvement only, so the first
// subset reaching a score wins ties — deterministic given the RNG stream).
func (s *search) evaluate(a []int) (int, error) {
	res, err := s.ev.Evaluate(a)
	if err != nil {
		return 0, err
	}
	served := infeasibleServed
	if res.Feasible {
		served = res.Served
	}
	if served > s.bestServed {
		s.best = append(s.best[:0], a...)
		s.bestServed = served
	}
	return served, nil
}

// errNoSubset reports that the deterministic constructors found no
// admissible anchor subset — the portfolio's counterpart of the
// enumeration's "no feasible deployment".
func errNoSubset(s int) error {
	return fmt.Errorf("portfolio: no admissible anchor subset of size %d found", s)
}

// errStateShape reports a checkpoint blob whose member-specific state does
// not fit this run's shape.
func errStateShape(member, what string, got, want int) error {
	return fmt.Errorf("portfolio: %s checkpoint state does not match this run: %s is %d, want %d", member, what, got, want)
}

// seed installs the member's starting incumbent (one evaluation). Members
// call it lazily on their first Step so a restored member never re-seeds.
func (s *search) seed() error {
	a := s.p.seedSubset(s.rng.Intn(s.p.m))
	if a == nil {
		return errNoSubset(s.p.s)
	}
	served, err := s.evaluate(a)
	if err != nil {
		return err
	}
	s.cur = a
	s.curServed = served
	return nil
}

// propose draws one neighborhood move from the incumbent; see proposeFrom.
func (s *search) propose() []int { return s.proposeFrom(s.cur) }

// proposeFrom draws one neighborhood move from an admissible base set: swap
// one anchor for a random cell of the same component, or shift one anchor to
// a random location-graph neighbor (the "re-place one UAV" move). The
// proposal is admissible by construction — the replacement must pass the hop
// bound against the untouched anchors — and nil after a bounded number of
// rejected draws (duplicate cell, hop violation). The returned slice is
// s.buf; the move's leaving and entering cells land in s.moveOut/s.moveIn
// (the tabu member's bookkeeping).
func (s *search) proposeFrom(a []int) []int {
	comp := s.p.comps[s.p.compOf[a[0]]]
	for try := 0; try < 8; try++ {
		i := s.rng.Intn(len(a))
		var c int
		if s.rng.Intn(2) == 0 {
			c = comp[s.rng.Intn(len(comp))]
		} else {
			nbs := s.p.in.LocGraph.Neighbors(a[i])
			if len(nbs) == 0 {
				continue
			}
			c = nbs[s.rng.Intn(len(nbs))]
		}
		if contains(a, c) {
			continue
		}
		ok := true
		for j, x := range a {
			if j == i {
				continue
			}
			d := s.p.in.Hop[c][x]
			if d == graph.Unreachable || d+1 > s.p.k {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		s.moveOut, s.moveIn = a[i], c
		s.buf = replaceAt(s.buf, a, i, c)
		return s.buf
	}
	return nil
}

// accept installs a proposal as the new incumbent.
func (s *search) accept(a []int, served int) {
	s.cur = append(s.cur[:0], a...)
	s.curServed = served
}

// Best implements Solver.
func (s *search) Best() ([]int, int) {
	if s.bestServed <= infeasibleServed {
		return nil, -1
	}
	return s.best, s.bestServed
}

// baseState freezes the shared fields; extra carries the member's own memory.
func (s *search) baseState(name string, extra any) (SolverState, error) {
	st := SolverState{
		Name:       name,
		Steps:      s.steps,
		Evals:      s.ev.Evaluations(),
		RNG:        s.src.state,
		Current:    append([]int(nil), s.cur...),
		CurServed:  s.curServed,
		Best:       append([]int(nil), s.best...),
		BestServed: s.bestServed,
	}
	if extra != nil {
		raw, err := json.Marshal(extra)
		if err != nil {
			return SolverState{}, err
		}
		st.Extra = raw
	}
	return st, nil
}

// restoreBase rewinds the shared fields and returns the member-specific blob
// for the caller to decode. The evaluator's evaluation counter is advanced to
// the frozen value so the remaining budget is exactly what the interrupted
// run had left.
func (s *search) restoreBase(name string, st SolverState) (json.RawMessage, error) {
	if st.Name != name {
		return nil, fmt.Errorf("portfolio: state is for member %q, not %q", st.Name, name)
	}
	if err := s.p.checkSubset(name, "current", st.Current); err != nil {
		return nil, err
	}
	if err := s.p.checkSubset(name, "best", st.Best); err != nil {
		return nil, err
	}
	s.steps = st.Steps
	s.src.state = st.RNG
	// An empty Current round-trips to nil: "no incumbent yet / restarting"
	// is represented as a nil cur, and solvers branch on it.
	s.cur = nil
	if len(st.Current) > 0 {
		s.cur = append([]int(nil), st.Current...)
	}
	s.curServed = st.CurServed
	s.best = nil
	if len(st.Best) > 0 {
		s.best = append([]int(nil), st.Best...)
	}
	s.bestServed = st.BestServed
	s.ev.SetEvaluations(st.Evals)
	return st.Extra, nil
}
