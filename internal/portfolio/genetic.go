package portfolio

import (
	"encoding/json"
	"fmt"

	"github.com/uav-coverage/uavnet/internal/core"
)

// geneticSolver is a steady-state genetic pass: a small population of anchor
// sets, tournament selection of two parents, anchor-set crossover (union of
// the parents' cells coerced back into the admissible region by the repair
// operator — the matroid-style oracle of this neighborhood), optional
// mutation through the shared move generator, and replace-worst insertion.
// Replace-worst is implicit elitism: the best individuals are never evicted.
// Each step costs exactly one evaluation (population seeding included), so
// the budget bounds the generation count.
type geneticSolver struct {
	*search
	pop [][]int
	fit []int
}

const (
	geneticPop        = 12
	geneticTournament = 3
	// geneticMutate is the per-child mutation probability, in 1/8ths (drawn
	// with rng.Intn(8) to keep the stream integer-only).
	geneticMutateEighths = 3
)

func newGenetic(p *problem, ev *core.SubsetEvaluator, seed int64, budget int64) *geneticSolver {
	s := newSearch(p, ev, seed, memberIndex("genetic"), budget)
	return &geneticSolver{search: s}
}

func (g *geneticSolver) Name() string { return "genetic" }

// tournament returns the index of the fittest of geneticTournament uniform
// draws (ties to the earlier draw, so the result is RNG-determined).
func (g *geneticSolver) tournament() int {
	best := g.rng.Intn(len(g.pop))
	for i := 1; i < geneticTournament; i++ {
		c := g.rng.Intn(len(g.pop))
		if g.fit[c] > g.fit[best] {
			best = c
		}
	}
	return best
}

func (g *geneticSolver) Step() (bool, error) {
	if g.remaining() <= 0 || g.steps >= g.stepCap() {
		return false, nil
	}
	g.steps++
	if len(g.pop) < geneticPop {
		// Population seeding: a rotated deterministic seed, diversified by a
		// few unevaluated admissible moves.
		a := g.p.seedSubset(g.rng.Intn(g.p.m))
		if a == nil {
			return false, errNoSubset(g.p.s)
		}
		for j := 0; j < 3; j++ {
			if mv := g.proposeFrom(a); mv != nil {
				a = append(a[:0], mv...)
			}
		}
		served, err := g.evaluate(a)
		if err != nil {
			return false, err
		}
		g.pop = append(g.pop, append([]int(nil), a...))
		g.fit = append(g.fit, served)
		return true, nil
	}
	// Crossover: union of two tournament-selected parents, repaired back
	// into the admissible region; a failed repair falls back to the fitter
	// parent, so the child is always admissible.
	p1, p2 := g.tournament(), g.tournament()
	union := make([]int, 0, 2*g.p.s)
	union = append(union, g.pop[p1]...)
	union = append(union, g.pop[p2]...)
	child := g.p.repair(union, g.rng.Intn(g.p.m))
	if child == nil {
		fitter := p1
		if g.fit[p2] > g.fit[p1] {
			fitter = p2
		}
		child = append([]int(nil), g.pop[fitter]...)
	}
	if g.rng.Intn(8) < geneticMutateEighths {
		if mv := g.proposeFrom(child); mv != nil {
			child = append(child[:0], mv...)
		}
	}
	served, err := g.evaluate(child)
	if err != nil {
		return false, err
	}
	// Replace the worst individual (ties to the earliest slot) when the
	// child is no worse — acceptance of equals keeps drift alive on plateaus.
	worst := 0
	for i := range g.fit {
		if g.fit[i] < g.fit[worst] {
			worst = i
		}
	}
	if served >= g.fit[worst] {
		g.pop[worst] = append(g.pop[worst][:0], child...)
		g.fit[worst] = served
	}
	return true, nil
}

// geneticExtra is the member-specific checkpoint blob.
type geneticExtra struct {
	Pop [][]int `json:"pop"`
	Fit []int   `json:"fit"`
}

func (g *geneticSolver) State() (SolverState, error) {
	ex := geneticExtra{Pop: make([][]int, len(g.pop)), Fit: append([]int(nil), g.fit...)}
	for i, ind := range g.pop {
		ex.Pop[i] = append([]int(nil), ind...)
	}
	return g.baseState("genetic", ex)
}

func (g *geneticSolver) Restore(st SolverState) error {
	raw, err := g.restoreBase("genetic", st)
	if err != nil {
		return err
	}
	var ex geneticExtra
	if err := json.Unmarshal(raw, &ex); err != nil {
		return err
	}
	if len(ex.Pop) != len(ex.Fit) {
		return errStateShape("genetic", "population/fitness length", len(ex.Pop), len(ex.Fit))
	}
	for i, ind := range ex.Pop {
		if !g.p.admissible(ind) {
			return fmt.Errorf("portfolio: genetic checkpoint state: pop[%d] %v is not an admissible anchor subset", i, ind)
		}
	}
	g.pop = ex.Pop
	g.fit = ex.Fit
	return nil
}
