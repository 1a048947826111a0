package portfolio

import (
	"encoding/json"
	"fmt"

	"github.com/uav-coverage/uavnet/internal/core"
)

// tabuSolver is tabu search over the anchor-swap neighborhood: each step
// samples a small candidate set of moves, evaluates them exactly, and commits
// the best candidate whose entering cell is not tabu — even when it worsens
// the incumbent, which is how tabu walks out of local optima. A cell that
// leaves the solution becomes tabu (may not re-enter) for a fixed tenure of
// steps; the aspiration rule overrides the list whenever a tabu candidate
// beats the best subset ever seen.
type tabuSolver struct {
	*search
	// ring is the fixed-tenure tabu list of recently removed cells; head is
	// the slot the next removal overwrites. The tenure is the ring length.
	ring []int
	head int
}

// tabuWidth is how many candidate moves each step samples and evaluates.
const tabuWidth = 4

func newTabu(p *problem, ev *core.SubsetEvaluator, seed int64, budget int64) *tabuSolver {
	s := newSearch(p, ev, seed, memberIndex("tabu"), budget)
	tenure := p.s + 4
	ring := make([]int, tenure)
	for i := range ring {
		ring[i] = -1
	}
	return &tabuSolver{search: s, ring: ring}
}

func (t *tabuSolver) Name() string { return "tabu" }

func (t *tabuSolver) isTabu(c int) bool {
	for _, x := range t.ring {
		if x == c {
			return true
		}
	}
	return false
}

func (t *tabuSolver) Step() (bool, error) {
	if t.remaining() <= 0 || t.steps >= t.stepCap() {
		return false, nil
	}
	t.steps++
	if t.cur == nil {
		return true, t.seed()
	}
	width := tabuWidth
	if r := t.remaining(); r < int64(width) {
		width = int(r)
	}
	// Sample and evaluate the candidate set, keeping the best admissible
	// candidate under the tabu/aspiration rule. bestIn/bestOut record the
	// winning move's entering and leaving cells for the tenure update.
	bestServed := infeasibleServed - 1
	var bestSet []int
	bestIn, bestOut := -1, -1
	for c := 0; c < width; c++ {
		prop := t.propose()
		if prop == nil {
			continue
		}
		in, out := t.moveIn, t.moveOut
		served, err := t.evaluate(prop)
		if err != nil {
			return false, err
		}
		if t.isTabu(in) && served <= t.bestServed {
			continue // tabu and not aspirating
		}
		if served > bestServed {
			bestServed = served
			bestSet = append(bestSet[:0], prop...)
			bestIn, bestOut = in, out
		}
	}
	if bestSet == nil {
		return true, nil // every candidate was tabu; the ring ages via future removals
	}
	_ = bestIn
	t.accept(bestSet, bestServed)
	t.ring[t.head] = bestOut
	t.head = (t.head + 1) % len(t.ring)
	return true, nil
}

// tabuExtra is the member-specific checkpoint blob.
type tabuExtra struct {
	Ring []int `json:"ring"`
	Head int   `json:"head"`
}

func (t *tabuSolver) State() (SolverState, error) {
	return t.baseState("tabu", tabuExtra{Ring: append([]int(nil), t.ring...), Head: t.head})
}

func (t *tabuSolver) Restore(st SolverState) error {
	raw, err := t.restoreBase("tabu", st)
	if err != nil {
		return err
	}
	var ex tabuExtra
	if err := json.Unmarshal(raw, &ex); err != nil {
		return err
	}
	if len(ex.Ring) != len(t.ring) {
		// The tenure is derived from s, so a size mismatch means the state
		// belongs to a different run shape.
		return errStateShape("tabu", "tabu-ring length", len(ex.Ring), len(t.ring))
	}
	if ex.Head < 0 || ex.Head >= len(t.ring) {
		return fmt.Errorf("portfolio: tabu checkpoint state: head %d outside the %d-slot ring", ex.Head, len(t.ring))
	}
	copy(t.ring, ex.Ring)
	t.head = ex.Head
	return nil
}
