package core

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/uav-coverage/uavnet/internal/strictjson"
)

// RunStatus tags how an Approx run ended.
type RunStatus string

const (
	// StatusComplete marks a run that exhausted the whole enumeration: the
	// deployment carries the paper's full approximation guarantee.
	StatusComplete RunStatus = "complete"
	// StatusStopped marks a run cut short — by context cancellation, a
	// deadline, or Options.StopAfter. The deployment is the best found so
	// far (possibly empty) and its Checkpoint field resumes the run.
	StatusStopped RunStatus = "stopped"
	// StatusPartial marks a sharded run (Options.Shard) that exhausted its
	// own shard range: the deployment is the best over that range only, and
	// its Checkpoint is the partial state MergeCheckpoints combines into the
	// final result. A sharded run stopped before finishing its range reports
	// StatusStopped, exactly like an unsharded one.
	StatusPartial RunStatus = "partial"
)

// Progress is a point-in-time snapshot of a running enumeration, delivered
// to the Options.Progress hook from a monitor goroutine and once more,
// synchronously, just before Approx returns.
type Progress struct {
	// Done counts the enumeration indices of this run's range fully
	// processed so far, including any prefix covered by a resumed
	// checkpoint. Done = Evaluated + Pruned.
	Done int64
	// Total is the enumeration range size for this run: C(m, s) (or
	// MaxSubsets when sampling), or the shard's range size under
	// Options.Shard.
	Total int64
	// Evaluated and Pruned split Done into subsets actually scored and
	// subsets skipped by the sound pruning rule.
	Evaluated, Pruned int64
	// BestServed is the served-user count of the best subset found so far,
	// or 0 while no feasible subset has been seen.
	BestServed int
	// Elapsed is the wall-clock time since this Approx call started (a
	// resumed run's clock restarts at zero).
	Elapsed time.Duration
	// ScopeDone and ScopeTotal count only this run's own claimable work:
	// the indices left after subtracting a resumed checkpoint's prefix and
	// truncating to the StopAfter budget. ScopeDone therefore starts at 0
	// even on a resumed run, and ScopeDone == ScopeTotal exactly when the
	// run finished everything it was asked to do this invocation.
	ScopeDone, ScopeTotal int64
	// ETA estimates the remaining wall-clock time to finish this run's
	// scope, from the processing rate observed this run
	// (Elapsed/ScopeDone): a resumed checkpoint's pre-existing prefix
	// counts toward neither the rate nor the remaining work, and a
	// StopAfter-budgeted run's ETA reaches zero when the budget — not the
	// whole enumeration — is exhausted. Zero until the rate is measurable.
	ETA time.Duration
}

// Checkpoint freezes a stopped enumeration so a later run can resume it via
// Options.Resume and finish with a deployment byte-identical to an
// uninterrupted run. It is valid because the enumeration is deterministic in
// (Seed, index): workers claim contiguous chunks from an atomic cursor and
// always finish a claimed chunk before honoring cancellation, so the
// processed indices form an exact prefix of the run's range and the sampling
// RNG needs no state beyond Seed (each index reseeds it — see subsetSource).
//
// A sharded run (Options.Shard) freezes the same state for its own
// sub-range, tagged with Shard; MergeCheckpoints combines such partials. A
// merged checkpoint of incompletely-processed shards is the one case where
// the done set is not a single prefix — its holes are listed in Remaining.
type Checkpoint struct {
	// Algorithm is always "approAlg"; resuming rejects anything else.
	Algorithm string `json:"algorithm"`
	// ScenarioFingerprint guards against resuming on a different scenario.
	// It is Instance.Fingerprint, not Scenario.Fingerprint: on aggregated
	// instances it also covers the demand grid, so a checkpoint taken under
	// one aggregation cell side cannot resume under another (or under a
	// per-user solve) — the enumeration's scores would differ silently.
	ScenarioFingerprint uint64 `json:"scenario_fingerprint"`
	// S is the effective anchor-subset size (after clamping to K and m).
	S int `json:"s"`
	// Seed, MaxSubsets, DisablePrune, GroundLeftovers, and RequiredCells
	// echo the options that shape the enumeration and its counters; resuming
	// under different values would silently change the result, so they must
	// match exactly.
	Seed            int64 `json:"seed"`
	MaxSubsets      int   `json:"max_subsets,omitempty"`
	DisablePrune    bool  `json:"disable_prune,omitempty"`
	GroundLeftovers bool  `json:"ground_leftovers,omitempty"`
	RequiredCells   []int `json:"required_cells,omitempty"`
	// Total is the enumeration size; Sampled records whether indices name
	// random draws rather than colex combinations.
	Total   int64 `json:"total_subsets"`
	Sampled bool  `json:"sampled,omitempty"`
	// Shard, when non-nil, marks a partial checkpoint: the run covered only
	// the tagged shard's sub-range of the enumeration (see ShardSpec.Range).
	// Resuming requires the same Options.Shard; MergeCheckpoints combines a
	// full set of partials into the unsharded result.
	Shard *ShardRange `json:"shard,omitempty"`
	// Cursor is the processed frontier within the checkpoint's range: every
	// index in [Range().Start, Cursor) has been evaluated or pruned and —
	// unless Remaining says otherwise — no index at or beyond Cursor has.
	Cursor int64 `json:"cursor"`
	// Remaining lists the still-unprocessed sub-ranges when the done set is
	// not a single prefix, which only merged checkpoints produce (some
	// shards finished, others did not). The spans are ascending, disjoint,
	// non-touching, and start at Cursor; when the unprocessed set is the
	// plain suffix [Cursor, Range().End) — every directly-emitted
	// checkpoint — Remaining is omitted, keeping the format of pre-shard
	// checkpoints byte-compatible.
	Remaining []Span `json:"remaining,omitempty"`
	// Evaluated and Pruned are the counter values over the processed set.
	Evaluated int64 `json:"evaluated"`
	Pruned    int64 `json:"pruned"`
	// Best is the best feasible subset over the processed set, or nil.
	Best *CheckpointBest `json:"best,omitempty"`
}

// Range returns the enumeration sub-range the checkpoint covers: its
// shard's range for a partial checkpoint, the whole [0, Total) otherwise.
func (c *Checkpoint) Range() Span {
	if c.Shard != nil {
		return Span{Start: c.Shard.Start, End: c.Shard.End}
	}
	return Span{Start: 0, End: c.Total}
}

// Complete reports whether every index of the checkpoint's range has been
// processed — nothing is left to resume.
func (c *Checkpoint) Complete() bool { return len(c.remaining()) == 0 }

// RemainingSpans returns a copy of the checkpoint's unprocessed sub-ranges,
// in ascending order; empty when the checkpoint is complete.
func (c *Checkpoint) RemainingSpans() []Span { return append([]Span(nil), c.remaining()...) }

// remaining is the unprocessed set: the explicit Remaining list when
// present, else the suffix [Cursor, Range().End), else nothing.
func (c *Checkpoint) remaining() []Span {
	if len(c.Remaining) > 0 {
		return c.Remaining
	}
	if r := c.Range(); c.Cursor < r.End {
		return []Span{{Start: c.Cursor, End: r.End}}
	}
	return nil
}

// CheckpointBest is the winning subsetResult of the processed prefix.
type CheckpointBest struct {
	// Idx is the subset's enumeration index (the deterministic tie-break).
	Idx int64 `json:"idx"`
	// Served is the number of users the subset's placement serves.
	Served int `json:"served"`
	// Locs is the location per capacity-sorted UAV slot.
	Locs []int `json:"locs"`
	// NSel is the prefix of Locs chosen by the M1 /\ M2 greedy phase.
	NSel int `json:"nsel"`
}

// Marshal serializes the checkpoint as indented JSON.
func (c *Checkpoint) Marshal() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// UnmarshalCheckpoint parses a checkpoint previously produced by Marshal.
// Decoding is strict (unknown fields and trailing bytes are rejected, see
// internal/strictjson): a checkpoint field the format does not define means
// the file was hand-edited or written by a different version, and a
// silently-dropped field here would resume a different run than the one
// frozen — the validate pass can only cross-check fields it actually
// decoded.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := strictjson.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("core: bad checkpoint: %w", err)
	}
	if c.Algorithm != "approAlg" {
		return nil, fmt.Errorf("core: checkpoint is for algorithm %q, not approAlg", c.Algorithm)
	}
	return &c, nil
}

// validate rejects a checkpoint that was not produced by an identical run:
// same scenario, same effective options, same enumeration space. seed of
// Options is passed through opts.
func (c *Checkpoint) validate(in *Instance, s int, opts Options, total int64, sampled bool) error {
	mismatch := func(field string, got, want any) error {
		return fmt.Errorf("core: checkpoint does not match this run: %s is %v, checkpoint has %v", field, got, want)
	}
	if c.Algorithm != "approAlg" {
		return fmt.Errorf("core: checkpoint is for algorithm %q, not approAlg", c.Algorithm)
	}
	if fp := in.Fingerprint(); fp != c.ScenarioFingerprint {
		// Hex, matching what uavgen prints for a scenario file.
		return mismatch("scenario fingerprint", fmt.Sprintf("%016x", fp), fmt.Sprintf("%016x", c.ScenarioFingerprint))
	}
	if s != c.S {
		return mismatch("s", s, c.S)
	}
	if opts.Seed != c.Seed {
		return mismatch("seed", opts.Seed, c.Seed)
	}
	if opts.MaxSubsets != c.MaxSubsets {
		return mismatch("max-subsets", opts.MaxSubsets, c.MaxSubsets)
	}
	if opts.DisablePrune != c.DisablePrune {
		return mismatch("disable-prune", opts.DisablePrune, c.DisablePrune)
	}
	if opts.GroundLeftovers != c.GroundLeftovers {
		return mismatch("ground-leftovers", opts.GroundLeftovers, c.GroundLeftovers)
	}
	if len(opts.RequiredCells) != len(c.RequiredCells) {
		return mismatch("required cells", opts.RequiredCells, c.RequiredCells)
	}
	for i, cell := range opts.RequiredCells {
		if cell != c.RequiredCells[i] {
			return mismatch("required cells", opts.RequiredCells, c.RequiredCells)
		}
	}
	if total != c.Total {
		return mismatch("total subsets", total, c.Total)
	}
	if sampled != c.Sampled {
		return mismatch("sampled", sampled, c.Sampled)
	}
	if opts.Shard.sharded() {
		want := opts.Shard.Range(total)
		switch {
		case c.Shard == nil:
			return mismatch("shard", fmt.Sprintf("%d/%d", opts.Shard.Index, opts.Shard.Count), "an unsharded checkpoint")
		case c.Shard.Index != opts.Shard.Index || c.Shard.Count != opts.Shard.Count:
			return mismatch("shard", fmt.Sprintf("%d/%d", opts.Shard.Index, opts.Shard.Count), fmt.Sprintf("%d/%d", c.Shard.Index, c.Shard.Count))
		case c.Shard.Start != want.Start || c.Shard.End != want.End:
			// The recorded bounds are redundant; a mismatch means the file
			// was edited or produced by an incompatible splitter.
			return fmt.Errorf("core: checkpoint shard %d/%d records range [%d, %d), want [%d, %d)",
				c.Shard.Index, c.Shard.Count, c.Shard.Start, c.Shard.End, want.Start, want.End)
		}
	} else if c.Shard != nil {
		return mismatch("shard", "none", fmt.Sprintf("%d/%d", c.Shard.Index, c.Shard.Count))
	}
	r := c.Range()
	if c.Cursor < r.Start || c.Cursor > r.End {
		return fmt.Errorf("core: checkpoint cursor %d out of range [%d, %d]", c.Cursor, r.Start, r.End)
	}
	if c.Remaining != nil {
		if c.Shard != nil {
			return fmt.Errorf("core: partial shard checkpoints are contiguous; remaining ranges are only valid on merged checkpoints")
		}
		if len(c.Remaining) == 0 {
			return fmt.Errorf("core: checkpoint remaining list is empty; omit it when nothing is left")
		}
		prevEnd := int64(-1)
		for i, sp := range c.Remaining {
			if sp.Start >= sp.End {
				return fmt.Errorf("core: checkpoint remaining range [%d, %d) is empty or inverted", sp.Start, sp.End)
			}
			if sp.Start < r.Start || sp.End > r.End {
				return fmt.Errorf("core: checkpoint remaining range [%d, %d) outside [%d, %d)", sp.Start, sp.End, r.Start, r.End)
			}
			if i > 0 && sp.Start <= prevEnd {
				return fmt.Errorf("core: checkpoint remaining ranges must be ascending, disjoint, and coalesced")
			}
			prevEnd = sp.End
		}
		if c.Cursor != c.Remaining[0].Start {
			return fmt.Errorf("core: checkpoint cursor %d disagrees with first remaining range start %d", c.Cursor, c.Remaining[0].Start)
		}
	}
	if c.Best != nil && (!r.contains(c.Best.Idx) || inSpans(c.remaining(), c.Best.Idx)) {
		return fmt.Errorf("core: checkpoint best index %d outside the processed set", c.Best.Idx)
	}
	return nil
}

// newCheckpoint freezes the state of a stopped, partial, or merged run.
// remaining lists the unprocessed sub-ranges of the run's range (ascending,
// disjoint, coalesced; nil/empty when the range is fully processed); the
// encoding is canonical — a plain suffix collapses into Cursor, only true
// holes materialize as Remaining. best.idx < 0 means no feasible subset was
// found in the processed set.
func newCheckpoint(in *Instance, s int, opts Options, total int64, sampled bool, remaining []Span, evaluated, pruned int64, best subsetResult) *Checkpoint {
	c := &Checkpoint{
		Algorithm:           "approAlg",
		ScenarioFingerprint: in.Fingerprint(),
		S:                   s,
		Seed:                opts.Seed,
		MaxSubsets:          opts.MaxSubsets,
		DisablePrune:        opts.DisablePrune,
		GroundLeftovers:     opts.GroundLeftovers,
		RequiredCells:       append([]int(nil), opts.RequiredCells...),
		Total:               total,
		Sampled:             sampled,
		Evaluated:           evaluated,
		Pruned:              pruned,
	}
	r := opts.Shard.Range(total)
	if opts.Shard.sharded() {
		c.Shard = &ShardRange{Index: opts.Shard.Index, Count: opts.Shard.Count, Start: r.Start, End: r.End}
	}
	switch {
	case len(remaining) == 0:
		c.Cursor = r.End
	case len(remaining) == 1 && remaining[0].End == r.End:
		c.Cursor = remaining[0].Start
	default:
		c.Cursor = remaining[0].Start
		c.Remaining = append([]Span(nil), remaining...)
	}
	if best.idx >= 0 {
		c.Best = &CheckpointBest{
			Idx:    best.idx,
			Served: best.served,
			Locs:   append([]int(nil), best.locs...),
			NSel:   best.nsel,
		}
	}
	return c
}
