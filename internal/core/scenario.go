// Package core implements the paper's primary contribution: the maximum
// connected coverage problem for heterogeneous UAV networks (Section II-C)
// and its O(sqrt(s/K))-approximation algorithm (Section III, Algorithm 2),
// together with Algorithm 1 (the L_max / p*_i budget computation) and the
// relay-connector construction of Lemma 2.
package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"github.com/uav-coverage/uavnet/internal/channel"
	"github.com/uav-coverage/uavnet/internal/geom"
	"github.com/uav-coverage/uavnet/internal/graph"
	"github.com/uav-coverage/uavnet/internal/match"
)

// User is one ground user to be served (Section II-A).
type User struct {
	// Pos is the user's ground position inside the disaster area.
	Pos geom.Point2
	// MinRateBps is the user's minimum data-rate requirement r_i^min,
	// e.g. 2000 (2 kbps).
	MinRateBps float64
}

// UAV is one heterogeneous UAV with its mounted base station (Section II-A).
type UAV struct {
	// Name is an optional human-readable label, e.g. "M600-1".
	Name string
	// Capacity is the service capacity C_k: the maximum number of users the
	// UAV can serve simultaneously.
	Capacity int
	// Tx is the base station's radio front-end (transmission power P_t^k and
	// antenna gain g_t^k).
	Tx channel.Transmitter
	// UserRange optionally caps the UAV-to-user communication range R_user^k
	// in meters. Zero means "no explicit cap": eligibility is then governed
	// solely by the per-user data-rate requirement through the channel model.
	UserRange float64
}

// Scenario is one full problem instance of the maximum connected coverage
// problem (Section II-C).
type Scenario struct {
	// Grid is the disaster area and its hovering-plane discretization.
	Grid geom.Grid
	// Users are the n ground users.
	Users []User
	// UAVs are the K heterogeneous UAVs.
	UAVs []UAV
	// UAVRange is the UAV-to-UAV communication range R_uav in meters; two
	// hovering locations are linked iff their distance is at most UAVRange.
	UAVRange float64
	// Channel holds the shared radio parameters.
	Channel channel.Params
}

// Validate reports whether the scenario is structurally usable.
func (sc *Scenario) Validate() error {
	if sc == nil {
		return fmt.Errorf("core: nil scenario")
	}
	if err := sc.Grid.Validate(); err != nil {
		return fmt.Errorf("core: invalid grid: %w", err)
	}
	if err := sc.Channel.Validate(); err != nil {
		return fmt.Errorf("core: invalid channel: %w", err)
	}
	if len(sc.UAVs) == 0 {
		return fmt.Errorf("core: scenario has no UAVs")
	}
	if sc.UAVRange <= 0 {
		return fmt.Errorf("core: UAV-to-UAV range %g must be positive", sc.UAVRange)
	}
	for k, u := range sc.UAVs {
		if u.Capacity < 0 {
			return fmt.Errorf("core: UAV %d has negative capacity %d", k, u.Capacity)
		}
		if u.UserRange < 0 {
			return fmt.Errorf("core: UAV %d has negative user range %g", k, u.UserRange)
		}
	}
	for i, u := range sc.Users {
		if u.MinRateBps < 0 {
			return fmt.Errorf("core: user %d has negative rate requirement %g", i, u.MinRateBps)
		}
	}
	return nil
}

// Fingerprint returns a 64-bit FNV-1a hash over every field that shapes the
// optimization problem: grid, ranges, channel parameters, users, and fleet.
// Checkpoints embed it so a resumed run provably targets the same scenario;
// it is a content hash, not a cryptographic commitment.
//
// The hashed bytes are a fixed contract — checkpoints and server job ids are
// keyed on the value — and are exactly what
//
//	fmt.Fprintf(h, "%v|%v|%v|", sc.Grid, sc.UAVRange, sc.Channel)
//	fmt.Fprintf(h, "u%v,%v,%v;", u.Pos.X, u.Pos.Y, u.MinRateBps) // per user
//	fmt.Fprintf(h, "k%s,%d,%v,%v;", u.Name, u.Capacity, u.Tx, u.UserRange) // per UAV
//
// writes. Users and UAVs go through appendUserFP and appendUAVFP instead, in
// one reused buffer, so a million-user scenario hashes without a fmt call
// or an allocation per user.
func (sc *Scenario) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%v|%v|", sc.Grid, sc.UAVRange, sc.Channel)
	buf := make([]byte, 0, 128)
	for _, u := range sc.Users {
		buf = appendUserFP(buf[:0], u)
		h.Write(buf)
	}
	for _, u := range sc.UAVs {
		buf = appendUAVFP(buf[:0], u)
		h.Write(buf)
	}
	return h.Sum64()
}

// appendUserFP appends one user's fingerprint record, "u%v,%v,%v;" of
// (X, Y, MinRateBps). fmt's %v of a float64 is strconv's shortest 'g'.
func appendUserFP(b []byte, u User) []byte {
	b = append(b, 'u')
	b = strconv.AppendFloat(b, u.Pos.X, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, u.Pos.Y, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, u.MinRateBps, 'g', -1, 64)
	return append(b, ';')
}

// appendUAVFP appends one UAV's fingerprint record, "k%s,%d,%v,%v;" of
// (Name, Capacity, Tx, UserRange); %v of the Transmitter struct is
// "{PowerDBm AntennaGainDBi}".
func appendUAVFP(b []byte, u UAV) []byte {
	b = append(b, 'k')
	b = append(b, u.Name...)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(u.Capacity), 10)
	b = append(b, ",{"...)
	b = strconv.AppendFloat(b, u.Tx.PowerDBm, 'g', -1, 64)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, u.Tx.AntennaGainDBi, 'g', -1, 64)
	b = append(b, "},"...)
	b = strconv.AppendFloat(b, u.UserRange, 'g', -1, 64)
	return append(b, ';')
}

// K returns the number of UAVs.
func (sc *Scenario) K() int { return len(sc.UAVs) }

// N returns the number of users.
func (sc *Scenario) N() int { return len(sc.Users) }

// M returns the number of candidate hovering locations.
func (sc *Scenario) M() int { return sc.Grid.NumCells() }

// classKey identifies UAVs that behave identically for eligibility purposes:
// same radio front-end and same explicit range cap. Capacity does NOT enter
// the key — capacity affects assignment, not eligibility.
type classKey struct {
	powerDBm, gainDBi, userRange float64
}

// Instance is a Scenario with every structure the algorithms need
// precomputed: the candidate-location graph, pairwise hop distances, per-UAV
// eligibility lists and the capacity-sorted UAV order. Build it once and
// share it across algorithm runs; it is read-only after construction and safe
// for concurrent use.
type Instance struct {
	Scenario *Scenario
	// Centers are the planar centers of the m candidate hovering locations.
	Centers []geom.Point2
	// LocGraph is the location graph: nodes are candidate locations, edges
	// connect pairs within UAVRange.
	LocGraph *graph.Undirected
	// Hop[a][b] is the hop distance between locations a and b in LocGraph,
	// or graph.Unreachable.
	Hop [][]int
	// Paths is the precomputed shortest-path oracle over LocGraph: one BFS
	// predecessor array per source, so the relay-connection step reads MST
	// edge expansions back instead of re-running a BFS per edge per subset.
	// Its paths are node-for-node identical to LocGraph.ShortestPath's.
	Paths *graph.PathOracle
	// ByCapacity holds UAV indices sorted by decreasing capacity (ties by
	// index), the order in which Algorithm 2 deploys them.
	ByCapacity []int
	// ClassOf maps a UAV index to its eligibility class.
	ClassOf []int
	// Eligible[class][loc] lists the demand nodes a UAV of that class can
	// serve from location loc (within range and meeting the minimum rate).
	// On a per-user instance (NewInstance) the nodes are the users
	// themselves; on an aggregated instance (NewAggregateInstance) they are
	// weighted demand cells.
	//
	// Invariant: every list is sorted ascending and duplicate-free (nodes
	// are scanned in index order at construction, each appended at most
	// once). EligMask and the matcher's popcount bound path rely on it;
	// TestEligibleSortedUniqueProperty asserts it on random instances.
	Eligible [][][]int
	// EligMask[class][loc] is Eligible[class][loc] as a node bitset, the
	// representation the greedy's dynamic gain bound popcounts against the
	// matcher's still-augmentable node set.
	EligMask [][]match.Bitset

	// Demand, Weights and EligWeight are set only on aggregated instances
	// (see aggregate.go): the demand-cell structure, the per-node demand
	// weights the matching layer serves, and the per-(class, location) total
	// eligible demand (the weighted counterpart of len(Eligible[c][j])).
	Demand     *Demand
	Weights    []int
	EligWeight [][]int
}

// NewInstance validates the scenario and precomputes the derived structures.
func NewInstance(sc *Scenario) (*Instance, error) {
	in, classes, err := newInstanceSkeleton(sc)
	if err != nil {
		return nil, err
	}
	m := len(in.Centers)

	// Per-class, per-user maximum serving distance: the lesser of the class's
	// explicit range cap and the distance at which the channel still meets
	// the user's minimum rate. Coverage radii are cached per distinct rate.
	in.Eligible = make([][][]int, len(classes))
	alt := sc.Grid.Altitude
	for c, key := range classes {
		tx := channel.Transmitter{PowerDBm: key.powerDBm, AntennaGainDBi: key.gainDBi}
		radiusByRate := map[float64]float64{}
		maxDist := make([]float64, len(sc.Users))
		for i, u := range sc.Users {
			r, ok := radiusByRate[u.MinRateBps]
			if !ok {
				r = sc.Channel.CoverageRadius(tx, alt, u.MinRateBps)
				radiusByRate[u.MinRateBps] = r
			}
			d := r
			if key.userRange > 0 && key.userRange < d {
				d = key.userRange
			}
			maxDist[i] = d
		}
		perLoc := make([][]int, m)
		perLocMask := make([]match.Bitset, m)
		for j := 0; j < m; j++ {
			var el []int
			for i := range sc.Users {
				// A zero radius means the channel cannot meet the user's
				// rate even directly overhead: never eligible.
				if maxDist[i] > 0 && geom.Dist2(sc.Users[i].Pos, in.Centers[j]) <= maxDist[i] {
					el = append(el, i)
				}
			}
			perLoc[j] = el
			perLocMask[j] = match.BitsetFromSorted(len(sc.Users), el)
		}
		in.Eligible[c] = perLoc
		in.EligMask = append(in.EligMask, perLocMask)
	}
	return in, nil
}

// newInstanceSkeleton validates the scenario and builds every instance
// structure that does not depend on the demand representation — the location
// graph, hop matrix, path oracle, capacity order and eligibility classes —
// shared by NewInstance and NewAggregateInstance. It returns the class keys
// in class-id order so the caller can run its own eligibility pass.
func newInstanceSkeleton(sc *Scenario) (*Instance, []classKey, error) {
	if err := sc.Validate(); err != nil {
		return nil, nil, err
	}
	in := &Instance{
		Scenario: sc,
		Centers:  sc.Grid.Centers(),
	}
	m := len(in.Centers)

	// Location graph and hop matrix.
	in.LocGraph = graph.New(m)
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			if geom.Dist2(in.Centers[a], in.Centers[b]) <= sc.UAVRange {
				if err := in.LocGraph.AddEdge(a, b); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	// The path oracle's construction BFS doubles as the hop-matrix BFS:
	// each Hop row is read back from the oracle's distance matrix instead
	// of running a second all-sources sweep.
	in.Paths = graph.NewPathOracle(in.LocGraph)
	in.Hop = make([][]int, m)
	for a := 0; a < m; a++ {
		in.Hop[a] = in.Paths.DistRow(a)
	}

	// Capacity-sorted order (decreasing; stable on index for determinism).
	in.ByCapacity = make([]int, sc.K())
	for k := range in.ByCapacity {
		in.ByCapacity[k] = k
	}
	sort.SliceStable(in.ByCapacity, func(i, j int) bool {
		a, b := in.ByCapacity[i], in.ByCapacity[j]
		if sc.UAVs[a].Capacity != sc.UAVs[b].Capacity {
			return sc.UAVs[a].Capacity > sc.UAVs[b].Capacity
		}
		return a < b
	})

	// Eligibility classes.
	classIdx := map[classKey]int{}
	in.ClassOf = make([]int, sc.K())
	var classes []classKey
	for k, u := range sc.UAVs {
		key := classKey{u.Tx.PowerDBm, u.Tx.AntennaGainDBi, u.UserRange}
		id, ok := classIdx[key]
		if !ok {
			id = len(classes)
			classIdx[key] = id
			classes = append(classes, key)
		}
		in.ClassOf[k] = id
	}
	return in, classes, nil
}

// EligibleUsers returns the demand nodes UAV k can serve from location loc:
// users on a per-user instance, demand cells on an aggregated one.
func (in *Instance) EligibleUsers(k, loc int) []int {
	return in.Eligible[in.ClassOf[k]][loc]
}

// NumNodes returns the number of demand nodes the matching layer works on:
// the demand-cell count for an aggregated instance, the user count otherwise.
func (in *Instance) NumNodes() int {
	if in.Demand != nil {
		return len(in.Demand.Cells)
	}
	return in.Scenario.N()
}

// Aggregated reports whether the instance carries aggregated demand cells
// instead of individual users.
func (in *Instance) Aggregated() bool { return in.Demand != nil }

// weightOf returns the demand of node u (1 on per-user instances).
func (in *Instance) weightOf(u int) int {
	if in.Weights == nil {
		return 1
	}
	return in.Weights[u]
}

// eligTotal returns the total demand eligible for the class at loc — the
// weighted counterpart of len(Eligible[class][loc]).
func (in *Instance) eligTotal(class, loc int) int {
	if in.EligWeight != nil {
		return in.EligWeight[class][loc]
	}
	return len(in.Eligible[class][loc])
}

// Fingerprint identifies the optimization problem the instance encodes. For
// a per-user instance it is the scenario fingerprint; an aggregated instance
// additionally binds the demand grid, so checkpoints taken on one cell size
// refuse to resume under another (or under the per-user representation) —
// the enumeration prefix would otherwise silently score different matchings.
func (in *Instance) Fingerprint() uint64 {
	fp := in.Scenario.Fingerprint()
	if in.Demand == nil {
		return fp
	}
	return aggFingerprint(fp, in.Demand)
}

// MaxHop returns the largest finite pairwise hop distance in the location
// graph (its hop diameter), useful for sizing searches.
func (in *Instance) MaxHop() int {
	maxHop := 0
	for a := range in.Hop {
		for _, d := range in.Hop[a] {
			if d > maxHop {
				maxHop = d
			}
		}
	}
	return maxHop
}

// TotalCapacity returns the sum of all UAV capacities.
func (in *Instance) TotalCapacity() int {
	total := 0
	for _, u := range in.Scenario.UAVs {
		total += u.Capacity
	}
	return total
}

// CoverageUpperBound returns a trivial upper bound on the number of users
// any deployment can serve: min(n, total capacity).
func (in *Instance) CoverageUpperBound() int {
	n := in.Scenario.N()
	if tc := in.TotalCapacity(); tc < n {
		return tc
	}
	return n
}

// distToLoc is a test helper: Euclidean distance from user i to location j.
func (in *Instance) distToLoc(i, j int) float64 {
	return geom.Dist2(in.Scenario.Users[i].Pos, in.Centers[j])
}
