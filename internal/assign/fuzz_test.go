package assign

import (
	"testing"

	"github.com/uav-coverage/uavnet/internal/match"
)

// decodeFuzzProblem maps arbitrary fuzz bytes onto a small Problem with the
// eligibility invariant the matcher documents (sorted ascending, no
// duplicates): each station's eligible set is read as a user bitmask, so the
// lists come out sorted for free.
func decodeFuzzProblem(data []byte) (Problem, bool) {
	if len(data) < 2 {
		return Problem{}, false
	}
	p := Problem{NumUsers: 1 + int(data[0])%24}
	stations := 1 + int(data[1])%6
	pos := 2
	maskBytes := (p.NumUsers + 7) / 8
	for j := 0; j < stations; j++ {
		if pos >= len(data) {
			break
		}
		cap := int(data[pos]) % 5
		pos++
		var el []int
		for u := 0; u < p.NumUsers; u++ {
			byteIdx := pos + u/8
			if byteIdx < len(data) && data[byteIdx]&(1<<(u%8)) != 0 {
				el = append(el, u)
			}
		}
		pos += maskBytes
		p.Capacities = append(p.Capacities, cap)
		p.Eligible = append(p.Eligible, el)
	}
	if len(p.Capacities) == 0 {
		return Problem{}, false
	}
	return p, true
}

// FuzzAssignDifferential cross-checks the incremental matcher against the
// flow-based reference on random problems: committing the stations one by one
// must serve exactly Solve's optimum, every speculative Gain must equal the
// realized Commit gain, and the matcher's per-station loads must respect
// capacities.
func FuzzAssignDifferential(f *testing.F) {
	f.Add([]byte{3, 2, 1, 0b011, 2, 0b110})
	f.Add([]byte{10, 4, 2, 0xff, 0x01, 0, 0x00, 0x00, 3, 0xaa, 0x02, 1, 0x55, 0x01})
	f.Add([]byte{24, 6, 4, 0xff, 0xff, 0xff, 4, 0x0f, 0xf0, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := decodeFuzzProblem(data)
		if !ok {
			return
		}
		ref, err := Solve(p)
		if err != nil {
			t.Fatalf("Solve rejected decoded problem: %v", err)
		}
		m, err := match.NewMatcher(p.NumUsers, len(p.Capacities))
		if err != nil {
			t.Fatal(err)
		}
		for j := range p.Capacities {
			g, err := m.Gain(p.Capacities[j], p.Eligible[j])
			if err != nil {
				t.Fatalf("Gain(station %d): %v", j, err)
			}
			c, err := m.Commit(p.Capacities[j], p.Eligible[j])
			if err != nil {
				t.Fatalf("Commit(station %d): %v", j, err)
			}
			if g != c {
				t.Fatalf("station %d: Gain %d != Commit gain %d (p=%+v)", j, g, c, p)
			}
		}
		if m.Served() != ref.Served {
			t.Fatalf("matcher served %d, Solve served %d (p=%+v)", m.Served(), ref.Served, p)
		}
		// Capacity feasibility and owner/load consistency.
		loads := make([]int, len(p.Capacities))
		for u := 0; u < p.NumUsers; u++ {
			if k := m.Owner(u); k != match.Unassigned {
				loads[k]++
			}
		}
		for k, c := range p.Capacities {
			if loads[k] != m.Load(k) {
				t.Fatalf("station %d: Load() %d but %d owners (p=%+v)", k, m.Load(k), loads[k], p)
			}
			if loads[k] > c {
				t.Fatalf("station %d over capacity: %d > %d (p=%+v)", k, loads[k], c, p)
			}
		}
	})
}

// decodeFuzzOps maps fuzz bytes onto a candidate pool and an operation
// script for FuzzMatcherOps. The layout is: numUsers, slots, pool size, then
// per candidate one capacity byte and a user bitmask (sorted lists for
// free), then one byte per operation. An operation byte b selects kind
// b%6 and, from b/6, a candidate and one of four ways of passing it:
//
//	0: the pool slice itself
//	1: a re-sliced view of it (same first element and length)
//	2: a fresh copy (same users, different backing array)
//	3: the pool slice with capacity+1
//
// so a script can commit the station its last Gain queried, or a different
// one, or the same users through another slice or capacity.
func decodeFuzzOps(data []byte) (numUsers, slots int, caps []int, lists [][]int, ops []byte, ok bool) {
	if len(data) < 3 {
		return 0, 0, nil, nil, nil, false
	}
	numUsers = 1 + int(data[0])%24
	slots = 1 + int(data[1])%6
	poolSize := 1 + int(data[2])%6
	pos := 3
	maskBytes := (numUsers + 7) / 8
	for j := 0; j < poolSize && pos < len(data); j++ {
		caps = append(caps, int(data[pos])%5)
		pos++
		var el []int
		for u := 0; u < numUsers; u++ {
			if i := pos + u/8; i < len(data) && data[i]&(1<<(u%8)) != 0 {
				el = append(el, u)
			}
		}
		pos += maskBytes
		lists = append(lists, el)
	}
	if len(caps) == 0 || pos >= len(data) {
		return 0, 0, nil, nil, nil, false
	}
	return numUsers, slots, caps, lists, data[pos:], true
}

// fuzzCandidate is one candidate station of a FuzzMatcherOps seed.
type fuzzCandidate struct {
	capacity int
	users    []int
}

// Operation kinds of decodeFuzzOps (an operation byte modulo 6).
const (
	opGain = iota
	opBound
	opOwner
	opLoad
	opCommit
	opReset
)

// fuzzOp is one operation of a FuzzMatcherOps seed: kind, candidate index
// and variant, as decodeFuzzOps reads them back.
type fuzzOp struct{ kind, cand, variant int }

// fuzzOpsSeed encodes a readable script in decodeFuzzOps's byte layout.
func fuzzOpsSeed(numUsers, slots int, pool []fuzzCandidate, ops ...fuzzOp) []byte {
	data := []byte{byte(numUsers - 1), byte(slots - 1), byte(len(pool) - 1)}
	for _, c := range pool {
		data = append(data, byte(c.capacity))
		mask := make([]byte, (numUsers+7)/8)
		for _, u := range c.users {
			mask[u/8] |= 1 << (u % 8)
		}
		data = append(data, mask...)
	}
	for _, op := range ops {
		data = append(data, byte(op.kind+6*(op.cand+len(pool)*op.variant)))
	}
	return data
}

// FuzzMatcherOps drives the matcher and the flow-based Evaluator through the
// same interleaving of Gain, GainBound, Owner, Load, Commit and Reset. The
// matcher keeps a Gain's augmentation pending until the next call, and a
// Commit of the same station adopts it; every interleaving must still look
// exactly like the reference: equal gains and served counts, a GainBound
// never below the true gain, and committed owners that add up to Load.
func FuzzMatcherOps(f *testing.F) {
	// Two candidates over 8 users: users 0-3 (capacity 2) and 2-5
	// (capacity 1).
	pool := []fuzzCandidate{{2, []int{0, 1, 2, 3}}, {1, []int{2, 3, 4, 5}}}
	// Gain then Commit of the same station, through the pool slice and
	// through a re-sliced view, then an Owner check.
	f.Add(fuzzOpsSeed(8, 4, pool,
		fuzzOp{opGain, 0, 0}, fuzzOp{opCommit, 0, 0},
		fuzzOp{opGain, 1, 0}, fuzzOp{opCommit, 1, 1}, fuzzOp{opOwner, 0, 0}))
	// A Commit of a station other than the last Gain, a GainBound and an
	// Owner check between a Gain and its Commit, a fresh copy, a bumped
	// capacity, a Reset and a Load check.
	f.Add(fuzzOpsSeed(8, 4, pool,
		fuzzOp{opGain, 0, 0}, fuzzOp{opCommit, 1, 0},
		fuzzOp{opGain, 0, 0}, fuzzOp{opBound, 1, 0}, fuzzOp{opCommit, 0, 1},
		fuzzOp{opReset, 0, 0},
		fuzzOp{opGain, 1, 0}, fuzzOp{opOwner, 0, 0}, fuzzOp{opCommit, 1, 2},
		fuzzOp{opGain, 0, 0}, fuzzOp{opCommit, 0, 3}, fuzzOp{opLoad, 1, 0}))
	// A Commit of another list with the same capacity and length as the
	// last Gain must not adopt it: {4..7} is spent, so its third copy
	// gains 0 where the queried {0..3} would gain 2.
	same := []fuzzCandidate{{2, []int{0, 1, 2, 3}}, {2, []int{4, 5, 6, 7}}}
	f.Add(fuzzOpsSeed(8, 4, same,
		fuzzOp{opCommit, 1, 0}, fuzzOp{opCommit, 1, 0},
		fuzzOp{opGain, 0, 0}, fuzzOp{opCommit, 1, 0}))
	// The steal chain: station 0 serves user 0, a station eligible only for
	// user 0 gains 1 by making station 0 pick up user 1.
	chain := []fuzzCandidate{{1, []int{0, 1}}, {1, []int{0}}}
	f.Add(fuzzOpsSeed(2, 3, chain,
		fuzzOp{opCommit, 0, 0}, fuzzOp{opGain, 1, 0}, fuzzOp{opBound, 1, 0},
		fuzzOp{opCommit, 1, 1}, fuzzOp{opOwner, 0, 0}, fuzzOp{opGain, 1, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		numUsers, slots, caps, lists, ops, ok := decodeFuzzOps(data)
		if !ok {
			return
		}
		if len(ops) > 64 {
			ops = ops[:64]
		}
		ev, err := NewEvaluator(numUsers, slots)
		if err != nil {
			t.Fatal(err)
		}
		m, err := match.NewMatcher(numUsers, slots)
		if err != nil {
			t.Fatal(err)
		}
		masks := make([]match.Bitset, len(lists))
		for j, el := range lists {
			masks[j] = match.BitsetFromSorted(numUsers, el)
		}
		var loads []int // realized gain of each committed station
		for step, b := range ops {
			j := int(b/6) % len(caps)
			capacity, el := caps[j], lists[j]
			switch int(b/6) / len(caps) % 4 {
			case 1:
				el = el[:len(el):len(el)]
			case 2:
				el = append([]int(nil), el...)
			case 3:
				capacity++
			}
			switch b % 6 {
			case opGain:
				g, gerr := m.Gain(capacity, el)
				want, werr := ev.Gain(capacity, el)
				if (gerr != nil) != (werr != nil) {
					t.Fatalf("step %d: Gain err %v, reference err %v", step, gerr, werr)
				}
				if g != want {
					t.Fatalf("step %d: Gain(%d, %v) = %d, reference %d", step, capacity, el, g, want)
				}
			case opBound:
				bound := m.GainBound(capacity, masks[j])
				if want, err := ev.Gain(capacity, el); err == nil && bound < want {
					t.Fatalf("step %d: GainBound(%d, %v) = %d below the true gain %d", step, capacity, el, bound, want)
				}
			case opOwner: // the committed owners must add up to Load
				hist := make([]int, m.Stations())
				for u := 0; u < numUsers; u++ {
					if k := m.Owner(u); k != match.Unassigned {
						if k < 0 || k >= len(hist) {
							t.Fatalf("step %d: user %d owned by uncommitted station %d", step, u, k)
						}
						hist[k]++
					}
				}
				for k, n := range hist {
					if n != m.Load(k) {
						t.Fatalf("step %d: station %d owns %d users, Load %d", step, k, n, m.Load(k))
					}
				}
			case opLoad: // a station's load is fixed when it is committed
				if len(loads) > 0 {
					k := j % len(loads)
					if m.Load(k) != loads[k] {
						t.Fatalf("step %d: Load(%d) = %d, committed with %d", step, k, m.Load(k), loads[k])
					}
				}
			case opCommit:
				g, gerr := m.Commit(capacity, el)
				want, werr := ev.Commit(capacity, el)
				if (gerr != nil) != (werr != nil) {
					t.Fatalf("step %d: Commit err %v, reference err %v", step, gerr, werr)
				}
				if g != want {
					t.Fatalf("step %d: Commit(%d, %v) = %d, reference %d", step, capacity, el, g, want)
				}
				if gerr == nil {
					loads = append(loads, g)
				}
			case opReset:
				if err := m.Reset(); err != nil {
					t.Fatal(err)
				}
				if err := ev.Reset(); err != nil {
					t.Fatal(err)
				}
				loads = loads[:0]
			}
			if m.Served() != ev.Served() {
				t.Fatalf("step %d: matcher served %d, reference %d", step, m.Served(), ev.Served())
			}
			if m.Stations() != ev.Stations() {
				t.Fatalf("step %d: matcher has %d stations, reference %d", step, m.Stations(), ev.Stations())
			}
		}
	})
}
