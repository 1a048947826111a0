package verify

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"github.com/uav-coverage/uavnet/internal/core"
)

// resumeSeeds is the corpus size for the resume-equivalence check, matching
// the differential harness's seed corpus.
const resumeSeeds = 60

// TestResumeByteIdentical cuts every corpus scenario's enumeration in half
// with a deterministic work budget, resumes it from the checkpoint, and
// requires the finished deployment to serialize byte-for-byte identically to
// an uninterrupted run — the contract uavdeploy -resume relies on.
func TestResumeByteIdentical(t *testing.T) {
	for seed := int64(0); seed < resumeSeeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		sc, err := RandomScenario(r)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		in, err := core.NewInstance(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s := 2
		if s > sc.K() {
			s = sc.K()
		}
		base := core.Options{S: s, Workers: 2}

		full, err := core.Approx(context.Background(), in, base)
		if err != nil {
			t.Fatalf("seed %d: uninterrupted: %v", seed, err)
		}
		total := full.SubsetsEvaluated + full.SubsetsPruned
		if total < 2 {
			continue // nothing to cut
		}

		cut := base
		cut.StopAfter = total / 2
		part, err := core.Approx(context.Background(), in, cut)
		if err != nil {
			t.Fatalf("seed %d: cut: %v", seed, err)
		}
		if part.Status != core.StatusStopped || part.Checkpoint == nil {
			t.Fatalf("seed %d: cut run status %q, checkpoint %v", seed, part.Status, part.Checkpoint)
		}

		// Serialize/parse the checkpoint as the CLI does, so the JSON form is
		// part of what the corpus exercises.
		data, err := part.Checkpoint.Marshal()
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		cp, err := core.UnmarshalCheckpoint(data)
		if err != nil {
			t.Fatalf("seed %d: unmarshal: %v", seed, err)
		}

		resumed := base
		resumed.Resume = cp
		dep, err := core.Approx(context.Background(), in, resumed)
		if err != nil {
			t.Fatalf("seed %d: resume: %v", seed, err)
		}
		a, errA := json.Marshal(full)
		b, errB := json.Marshal(dep)
		if errA != nil || errB != nil {
			t.Fatalf("seed %d: marshal deployments: %v %v", seed, errA, errB)
		}
		if string(a) != string(b) {
			t.Errorf("seed %d: resumed deployment differs from uninterrupted run\nfull:    %s\nresumed: %s",
				seed, a, b)
		}
	}
}
