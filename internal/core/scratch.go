package core

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/uav-coverage/uavnet/internal/graph"
	"github.com/uav-coverage/uavnet/internal/matroid"
)

// evalScratch is one SubsetEvaluator's reusable working memory. Every buffer
// the per-subset body of Algorithm 2 needs — BFS distances and frontier, the
// greedy runner's heap, the MST edge/tree buffers, relay paths, node sets
// (boolean masks instead of maps), slot lists, and the leftover-extension
// claim table — lives here and is recycled across the whole enumeration, so
// the steady-state evaluation path allocates nothing.
//
// The masks are cleared by their users after each subset (node lists are
// short); the claim tables use epoch stamping so they are never cleared at
// all. One scratch must not be shared between goroutines.
//
//uavlint:scratch epoch=epoch tables=claimed,used
type evalScratch struct {
	// BFS from the anchor set (matroid M2 distances).
	dist  []int
	queue []int
	// Ground set and greedy machinery.
	ground   []int
	qCounts  []int
	m2       matroid.HopCount
	feasible func(selected []int, e int) bool
	runner   matroid.LazyRunner
	// Relay connection (MST + path oracle).
	mst      graph.MSTScratch
	path     []int
	nodeMark []bool
	nodes    []int
	// Slot assembly.
	slotLoc []int
	selMark []bool
	relays  []int
	// Leftover extension claim tables (epoch-stamped). On aggregated
	// instances the tables are indexed by demand node and claims are
	// partial: claimAmt[u] (valid only while claimed[u] == epoch) records
	// how much of node u's weight is taken. Unit instances have weight 1
	// everywhere, so a claim is all-or-nothing and claimAmt is always 1 —
	// the bookkeeping degenerates to the original boolean protocol.
	claimed  []int64
	claimAmt []int
	used     []int64
	epoch    int64
}

// newEvalScratch sizes a scratch for the instance and the hop-budget vector
// q (the Q_h caps of Eq. (1), shared by every subset of one Approx run).
func newEvalScratch(in *Instance, q []int) *evalScratch {
	m := in.Scenario.M()
	n := in.NumNodes()
	scr := &evalScratch{
		dist:     make([]int, m),
		queue:    make([]int, 0, m),
		ground:   make([]int, 0, m),
		qCounts:  make([]int, len(q)),
		nodeMark: make([]bool, m),
		selMark:  make([]bool, m),
		claimed:  make([]int64, n),
		claimAmt: make([]int, n),
		used:     make([]int64, m),
	}
	// The M2 matroid aliases scr.dist, which MultiSourceBFSInto refills in
	// place per subset, so both the matroid value and the feasibility
	// closure are built once per worker instead of once per subset.
	scr.m2 = matroid.HopCount{Dist: scr.dist, Q: q}
	scr.feasible = func(selected []int, e int) bool {
		return scr.m2.CanAddInto(selected, e, scr.qCounts)
	}
	return scr
}

// connectLocations returns the sorted node set of the connected subgraph G_j
// obtained by taking an MST of the selected locations under the hop metric
// and replacing each MST edge with a shortest path (Algorithm 2 lines
// 13-15). The MST reads the instance's precomputed hop matrix, each tree
// edge expands through the path oracle, and the node set is a boolean mask.
// The returned slice is scratch-owned and valid until the next call.
func (scr *evalScratch) connectLocations(in *Instance, selected []int) ([]int, error) {
	nodes := scr.nodes[:0]
	for _, v := range selected {
		if !scr.nodeMark[v] {
			scr.nodeMark[v] = true
			nodes = append(nodes, v)
		}
	}
	var connectErr error
	if len(selected) > 1 {
		tree, _, err := scr.mst.CompleteHopMST(in.Hop, selected)
		if err != nil {
			connectErr = err
		}
		for _, e := range tree {
			if connectErr != nil {
				break
			}
			path := in.Paths.PathInto(selected[e.U], selected[e.V], scr.path)
			if path == nil {
				connectErr = fmt.Errorf("core: lost path between %d and %d", selected[e.U], selected[e.V])
				break
			}
			scr.path = path
			for _, v := range path {
				if !scr.nodeMark[v] {
					scr.nodeMark[v] = true
					nodes = append(nodes, v)
				}
			}
		}
	}
	for _, v := range nodes {
		scr.nodeMark[v] = false
	}
	scr.nodes = nodes
	if connectErr != nil {
		return nil, connectErr
	}
	sort.Ints(nodes)
	return nodes, nil
}

// claimAvail returns how much of node u's weight is still unclaimed in the
// current epoch (on unit instances: 1 if unclaimed, 0 if claimed).
func (scr *evalScratch) claimAvail(in *Instance, u int) int {
	if scr.claimed[u] != scr.epoch {
		return in.weightOf(u)
	}
	return in.weightOf(u) - scr.claimAmt[u]
}

// claimUsers greedily claims up to caps[slot] still-unclaimed demand units
// eligible for the slot's UAV at loc, stamping the touched nodes with the
// current epoch, and returns the amount claimed. Claims are partial on
// weighted nodes; on unit instances this is the original one-user-per-claim
// protocol.
func (scr *evalScratch) claimUsers(in *Instance, slot, loc int, budget int) int {
	uav := in.ByCapacity[slot]
	got := 0
	for _, u := range in.EligibleUsers(uav, loc) {
		if got == budget {
			break
		}
		avail := scr.claimAvail(in, u)
		if avail <= 0 {
			continue
		}
		take := avail
		if rest := budget - got; rest < take {
			take = rest
		}
		if scr.claimed[u] != scr.epoch {
			scr.claimed[u] = scr.epoch
			scr.claimAmt[u] = 0
		}
		scr.claimAmt[u] += take
		got += take
	}
	return got
}

// extendWithLeftovers deploys the UAVs left over after the q_j network
// members, one by one in decreasing-capacity order: each goes to the free
// cell adjacent to the current network that covers the most users not yet
// claimed by an earlier slot (claims are capacity-capped), keeping the
// network connected by construction. UAVs with no positive-gain cell stay
// grounded. The claim bookkeeping is a fast surrogate for the exact flow
// oracle; the caller rescores the final placement exactly. Claim and
// used-cell tables are epoch-stamped scratch arrays, so repeated calls
// allocate nothing and never pay a clearing pass.
func (scr *evalScratch) extendWithLeftovers(in *Instance, slotLoc []int, caps []int) []int {
	k := in.Scenario.K()
	if len(slotLoc) >= k {
		return slotLoc
	}
	scr.epoch++
	for slot, loc := range slotLoc {
		scr.used[loc] = scr.epoch
		scr.claimUsers(in, slot, loc, caps[slot])
	}
	for slot := len(slotLoc); slot < k; slot++ {
		uav := in.ByCapacity[slot]
		budget := caps[slot]
		bestLoc, bestGain := -1, 0
		for _, v := range slotLoc {
			for _, nb := range in.LocGraph.Neighbors(v) {
				if scr.used[nb] == scr.epoch {
					continue
				}
				gain := 0
				for _, u := range in.EligibleUsers(uav, nb) {
					if gain == budget {
						break
					}
					if avail := scr.claimAvail(in, u); avail > 0 {
						gain += avail
						if gain > budget {
							gain = budget
						}
					}
				}
				if gain > bestGain || (gain == bestGain && gain > 0 && nb < bestLoc) {
					bestLoc, bestGain = nb, gain
				}
			}
		}
		if bestLoc == -1 {
			break
		}
		slotLoc = append(slotLoc, bestLoc)
		scr.used[bestLoc] = scr.epoch
		scr.claimUsers(in, slot, bestLoc, budget)
	}
	return slotLoc
}

// subsetSource deterministically yields the anchor subset for an enumeration
// index. In exhaustive mode consecutive indices advance by the colex
// next-combination step (O(s) amortized) and only random accesses — the
// first index of a worker's chunk — pay the unranking loop; in sampling mode
// every index reseeds the source's persistent RNG, so the subset depends
// only on (Seed, idx), never on which worker draws it. The slice returned by
// at is owned by the source and overwritten by the next call.
//
// Sampling draws each index's subset independently, i.e. WITH replacement
// across the MaxSubsets draws. Sampling without replacement would need
// either shared state across workers (destroying the index-determinism that
// makes results worker-count-independent) or an unranking of a uniform
// random index into a space as large as C(m, s), which overflows int64 for
// paper-scale m. A duplicated draw merely re-evaluates an identical subset
// to an identical result, so correctness is unaffected; the only cost is a
// small loss of sample diversity, negligible while MaxSubsets << C(m, s) —
// the regime the cap exists for.
type subsetSource struct {
	m, s    int
	sampled bool
	seed    int64
	cur     []int
	lastIdx int64
	// Sampling-mode state: a persistent reseeded RNG plus the partial
	// Fisher-Yates scratch (identity permutation and swap journal).
	rng   *rand.Rand
	perm  []int
	swaps []int
}

// subsetSpace returns the number of enumeration indices for the given
// options and whether they index random samples rather than the full colex
// enumeration.
func subsetSpace(m, s int, opts Options) (total int64, sampled bool) {
	total = binomial(m, s)
	if opts.MaxSubsets > 0 && int64(opts.MaxSubsets) < total {
		return int64(opts.MaxSubsets), true
	}
	return total, false
}

func newSubsetSource(m, s int, opts Options, sampled bool) *subsetSource {
	src := &subsetSource{m: m, s: s, sampled: sampled, seed: opts.Seed, cur: make([]int, s), lastIdx: -1}
	if sampled {
		src.rng = rand.New(rand.NewSource(opts.Seed))
		src.perm = make([]int, m)
		for i := range src.perm {
			src.perm[i] = i
		}
		src.swaps = make([]int, s)
	}
	return src
}

// at returns the anchor subset for enumeration index idx.
func (src *subsetSource) at(idx int64) ([]int, error) {
	if src.sampled {
		// Reseed per index: the draw is a pure function of (Seed, idx), so
		// the result is identical no matter which worker evaluates idx.
		src.rng.Seed(src.seed + idx*2654435761)
		return sampleCombination(src.rng, src.perm, src.swaps, src.cur), nil
	}
	if idx == src.lastIdx+1 && src.lastIdx >= 0 {
		if !nextCombination(src.cur, src.m) {
			return nil, fmt.Errorf("core: combination index %d out of range for C(%d,%d)", idx, src.m, src.s)
		}
	} else if err := unrankCombinationInto(idx, src.m, src.s, src.cur); err != nil {
		return nil, err
	}
	src.lastIdx = idx
	return src.cur, nil
}
