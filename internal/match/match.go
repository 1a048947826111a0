// Package match implements the incremental unit-capacity bipartite matcher
// behind the greedy placement oracle of Algorithm 2.
//
// The assignment network of Section II-D (Lemma 1) is not a general flow
// problem: every user has unit capacity and only stations carry larger
// capacities, so an optimal assignment is a maximum bipartite b-matching.
// The matcher exploits that structure directly. It maintains the committed
// served/unserved state as a plain owner array over the caller's precomputed
// eligibility lists and answers "how many extra users would one more station
// serve?" with capacity-capped Kuhn-style augmenting searches: each attempt
// walks alternating chains (station steals a served user, the victim's owner
// re-acquires elsewhere) until it frees up a previously-unserved user. There
// is no per-query edge construction, no residual-graph journaling beyond a
// flat owner journal, and no level-graph BFS over untouched parts of the
// network — the costs the Dinic-based assign.Evaluator pays on every what-if
// query.
//
// Correctness rests on three classical matching facts, all exercised by the
// package tests and the differential fuzz targets in internal/assign:
//
//  1. Adding one station copy to a graph whose matching is maximum admits an
//     augmenting path only with the new copy as an endpoint, so searching
//     from the new station alone finds it.
//  2. A failed search leaves the matching untouched, and the station's cap
//     copies are interchangeable, so the first failed attempt ends the query.
//  3. Every augmenting path raises the matching size by exactly one, so which
//     path a search finds never changes a gain. That makes it sound for a
//     search to take any unserved eligible user before it tries to steal one:
//     the matching it builds may differ, its size never does.
//
// Gain leaves its augmentation applied as pending state instead of rewinding
// at once. A Commit of the same station (same slot, capacity and eligible
// slice, compared by first-element pointer and length) adopts it without
// augmenting again, which is the lazy greedy's Gain-then-Commit pattern.
// Every other call that reads or changes the matching (Gain, Owner, Reset, a
// Commit of any other station, and a GainBound that must rebuild reach)
// first rewinds the pending augmentation through the owner journal, so the
// observable contract is unchanged: Gain never changes what Served, Owner,
// Load or GainBound report. A caller must therefore not modify an eligible
// list between the Gain and the Commit that passes it again, just as it must
// never modify a committed one.
//
// assign.Evaluator (Dinic over internal/flow) remains the reference
// implementation the matcher is verified against.
package match

import (
	"fmt"
)

// Unassigned marks a user not served by any committed station.
const Unassigned = -1

// journalEntry records one owner-array mutation so speculative Gain queries
// can rewind: user reverts to prev.
type journalEntry struct {
	user, prev int32
}

// Matcher incrementally evaluates and commits station placements over a
// fixed user population, mirroring assign.Evaluator's contract: Gain answers
// what-if queries without mutating committed state, Commit realizes one.
// A Matcher must not be shared between goroutines.
//
//uavlint:scratch epoch=epoch tables=visited
type Matcher struct {
	numUsers int
	maxSlots int

	// owner[u] is the committed station serving user u, or Unassigned.
	owner    []int32
	served   int
	stations int

	// Committed per-station state; slot maxSlots is the scratch slot Gain
	// queries borrow, so the arrays hold maxSlots+1 entries.
	caps []int
	elig [][]int // borrowed from the caller, never mutated
	load []int

	// Epoch-stamped visited marks: visited[u] == epoch means user u was seen
	// by the current augmenting attempt, so attempts never pay a clearing
	// pass.
	visited []uint64
	epoch   uint64

	// unserved tracks users with no owner; reach additionally includes every
	// served user whose owner can re-acquire a replacement through an
	// alternating chain (see recomputeReach). reach is recomputed lazily
	// after commits invalidate it.
	unserved   Bitset
	reach      Bitset
	reachValid bool

	// recomputeReach scratch: satisfiable marks per station.
	sat []bool

	// cur[j] is where station j's free-user scan resumes in elig[j] during
	// the current augment. Within one augment users only go from unserved to
	// served, so every position before cur[j] stays served and the cursor
	// only moves forward.
	cur []int

	// Speculative-query journal.
	journal    []journalEntry
	journaling bool

	// pending is set while the last Gain's augmentation is still applied
	// (its owner changes sit in journal, its eligible list in elig[stations]).
	// pendCap, pendElig and pendLen identify the station it was computed for,
	// pendGain is its result.
	pending  bool
	pendCap  int
	pendElig *int
	pendLen  int
	pendGain int
}

// NewMatcher returns a matcher for numUsers users and at most maxSlots
// committed stations.
func NewMatcher(numUsers, maxSlots int) (*Matcher, error) {
	if numUsers < 0 || maxSlots < 0 {
		return nil, fmt.Errorf("match: invalid matcher size (%d users, %d slots)", numUsers, maxSlots)
	}
	m := &Matcher{
		numUsers: numUsers,
		maxSlots: maxSlots,
		owner:    make([]int32, numUsers),
		caps:     make([]int, maxSlots+1),
		elig:     make([][]int, maxSlots+1),
		load:     make([]int, maxSlots+1),
		visited:  make([]uint64, numUsers),
		unserved: NewBitset(numUsers),
		reach:    NewBitset(numUsers),
		sat:      make([]bool, maxSlots+1),
		cur:      make([]int, maxSlots+1),
	}
	for i := range m.owner {
		m.owner[i] = Unassigned
	}
	m.unserved.Fill(numUsers)
	return m, nil
}

// Reset rewinds the matcher to its fresh state (no committed stations),
// reusing all memory. Use it to amortize construction across many
// independent placement evaluations over the same users.
func (m *Matcher) Reset() error {
	m.rewind()
	for i := range m.owner {
		m.owner[i] = Unassigned
	}
	m.unserved.Fill(m.numUsers)
	for k := 0; k < m.stations; k++ {
		m.elig[k] = nil
	}
	m.stations = 0
	m.served = 0
	m.reachValid = false
	return nil
}

// Served returns the number of users served by the committed stations.
func (m *Matcher) Served() int { return m.served }

// Stations returns the number of committed stations.
func (m *Matcher) Stations() int { return m.stations }

// Owner returns the committed station serving user u, or Unassigned.
func (m *Matcher) Owner(u int) int {
	m.rewind()
	return int(m.owner[u])
}

// Load returns the number of users served by committed station k.
func (m *Matcher) Load(k int) int { return m.load[k] }

// checkStation validates a Gain/Commit request the same way assign.Evaluator
// does: a free slot must remain, the capacity must be non-negative, and every
// eligible user must be in range.
func (m *Matcher) checkStation(capacity int, eligible []int) error {
	if m.stations >= m.maxSlots {
		return fmt.Errorf("match: all %d station slots committed", m.maxSlots)
	}
	if capacity < 0 {
		return fmt.Errorf("match: negative capacity %d", capacity)
	}
	for _, u := range eligible {
		if u < 0 || u >= m.numUsers {
			return fmt.Errorf("match: eligible user %d outside [0,%d)", u, m.numUsers)
		}
	}
	return nil
}

// assign makes station k the owner of user u, journaling the previous owner
// when a speculative query is active.
func (m *Matcher) assign(u, k int) {
	if m.journaling {
		m.journal = append(m.journal, journalEntry{user: int32(u), prev: m.owner[u]})
	}
	if m.owner[u] == Unassigned {
		m.unserved.Clear(u)
	}
	m.owner[u] = int32(k)
}

// tryServe finds one augmenting alternating chain giving station k one more
// served user: an unserved eligible user directly if there is one (fact 3),
// otherwise a served one whose owner can recursively re-acquire a
// replacement. It returns false without mutating any state (assignments
// happen only while unwinding a successful chain).
func (m *Matcher) tryServe(k int) bool {
	el := m.elig[k]
	for i := m.cur[k]; i < len(el); i++ {
		if u := el[i]; m.owner[u] == Unassigned {
			m.cur[k] = i + 1
			m.assign(u, k)
			return true
		}
	}
	m.cur[k] = len(el)
	// No eligible user is unserved, and a failing search frees none, so the
	// steal loop below never meets one.
	for _, u := range el {
		if m.visited[u] == m.epoch {
			continue
		}
		m.visited[u] = m.epoch
		owner := int(m.owner[u])
		if owner == k {
			continue // already ours; stealing from ourselves gains nothing
		}
		if m.tryServe(owner) {
			m.assign(u, k)
			return true
		}
	}
	return false
}

// augment runs capacity-capped augmenting attempts for slot k and returns
// the number that succeeded. The station's cap copies are interchangeable
// and a failed attempt leaves the matching untouched, so the first failure
// ends the loop. The free-user cursors restart here, because a rewind
// between augments may have freed users behind them.
func (m *Matcher) augment(k, capacity int) int {
	for j := 0; j <= m.stations; j++ {
		m.cur[j] = 0
	}
	g := 0
	for g < capacity {
		m.epoch++
		if !m.tryServe(k) {
			break
		}
		g++
	}
	return g
}

// rewind undoes a pending Gain augmentation through the owner journal,
// restoring the committed matching. It is a no-op when nothing is pending.
func (m *Matcher) rewind() {
	if !m.pending {
		return
	}
	for i := len(m.journal) - 1; i >= 0; i-- {
		e := m.journal[i]
		if e.prev == Unassigned {
			m.unserved.Set(int(e.user))
		}
		m.owner[e.user] = e.prev
	}
	m.journal = m.journal[:0]
	m.elig[m.stations] = nil
	m.pending = false
}

// firstElem identifies an eligible slice's backing array together with its
// length: two slices with the same first-element pointer and length view the
// same users.
func firstElem(s []int) *int {
	if len(s) == 0 {
		return nil
	}
	return &s[0]
}

// Gain returns how many additional users would be served if a station with
// the given capacity and eligible-user list were added to the committed set.
// The committed state is not modified as far as any other method can tell:
// the query augments in place and leaves the augmentation pending, and the
// next call either adopts it (a Commit of the same station) or rewinds it
// through the owner journal, which costs time proportional to the
// alternating chains actually walked.
func (m *Matcher) Gain(capacity int, eligible []int) (int, error) {
	m.rewind()
	if err := m.checkStation(capacity, eligible); err != nil {
		return 0, err
	}
	k := m.stations
	m.elig[k] = eligible
	m.journaling = true
	g := m.augment(k, capacity)
	m.journaling = false
	m.pending = true
	m.pendCap, m.pendElig, m.pendLen, m.pendGain = capacity, firstElem(eligible), len(eligible), g
	return g, nil
}

// Commit adds the station to the committed set and returns its realized gain.
// When the previous call was a Gain for the same capacity and eligible slice,
// its pending augmentation becomes the committed one as it stands.
func (m *Matcher) Commit(capacity int, eligible []int) (int, error) {
	k := m.stations
	if m.pending && capacity == m.pendCap && len(eligible) == m.pendLen && firstElem(eligible) == m.pendElig {
		m.journal = m.journal[:0]
		m.pending = false
		m.load[k] = m.pendGain
	} else {
		m.rewind()
		if err := m.checkStation(capacity, eligible); err != nil {
			return 0, err
		}
		m.elig[k] = eligible
		// Later commits may steal users from k, but every steal forces the
		// thief to hand k a replacement through the same chain, so k's load
		// is fixed at commit time.
		m.load[k] = m.augment(k, capacity)
	}
	m.caps[k] = capacity
	m.served += m.load[k]
	m.stations++
	m.reachValid = false
	return m.load[k], nil
}

// GainBound returns min(capacity, |eligMask ∩ reach|), a sound upper bound
// on what Gain would return for a station with that capacity and an eligible
// set whose bitset is eligMask. It costs a few popcounts (plus a lazy reach
// recomputation after a commit) — no augmenting work.
//
// reach, not unserved, is what makes the bound sound. Every augmenting chain
// opened by a new station enters through a distinct eligible user u, and u
// need not be unserved: the chain may steal u and let u's owner re-acquire a
// replacement, ultimately serving an unserved user that is NOT eligible to
// the new station. (Station k with capacity 1 and eligibility {u1, u2}
// serving u1: a new station eligible only for {u1} still gains 1 — it takes
// u1 and k picks up u2.) So |eligible ∩ unserved| under-counts and pruning
// with it would change results. The correct per-user question is "could an
// augmenting chain start here?", which is exactly u ∈ reach: u unserved, or
// u's owner able to re-acquire through alternating chains. The chains of a
// maximum augmentation are vertex-disjoint, so the gain is at most the
// number of such entry users.
//
// A valid reach depends only on the committed matching, so a pending Gain
// stays pending unless reach has to be rebuilt, which needs the committed
// owners back first.
func (m *Matcher) GainBound(capacity int, eligMask Bitset) int {
	if !m.reachValid {
		m.rewind()
		m.recomputeReach()
	}
	b := AndCount(eligMask, m.reach)
	if capacity < b {
		b = capacity
	}
	return b
}

// recomputeReach rebuilds the alternating-reachability set: a user is in
// reach iff it is unserved, or its owner is "satisfiable" — able to acquire
// one more net user through an alternating chain. Station satisfiability is
// the fixpoint of: k is satisfiable iff some eligible user of k is in reach
// and not already served by k. Each sweep below either marks a new station
// satisfiable or terminates, so the loop runs at most stations+1 sweeps over
// the committed eligibility lists. A station only ever serves users on its
// own list, so that list also finds its served users without any O(n) pass
// over the owner array.
func (m *Matcher) recomputeReach() {
	m.reach.CopyFrom(m.unserved)
	for k := 0; k < m.stations; k++ {
		m.sat[k] = false
	}
	for changed := true; changed; {
		changed = false
		for k := 0; k < m.stations; k++ {
			if m.sat[k] {
				continue
			}
			hit := false
			for _, u := range m.elig[k] {
				if m.reach.Has(u) && int(m.owner[u]) != k {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			m.sat[k] = true
			changed = true
			for _, u := range m.elig[k] {
				if int(m.owner[u]) == k {
					m.reach.Set(u)
				}
			}
		}
	}
	m.reachValid = true
}
