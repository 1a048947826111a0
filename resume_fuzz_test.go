package uavnet_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	uavnet "github.com/uav-coverage/uavnet"
)

// The files under testdata/corrupt are compat checkpoints with one field
// edited out of the enumeration's reach — each panicked a resume before the
// checkpoint validators learned to reject it.
const corruptDir = "testdata/corrupt"

// resumeOptions returns the run options a checkpoint of the compat scenario
// resumes under: the compat portfolio race, or the s=3 enumeration with a
// small StopAfter past the frontier so one resume stays cheap.
func resumeOptions(cp *uavnet.RunCheckpoint) uavnet.Options {
	if cp.Portfolio != nil {
		return compatPortfolio
	}
	done, _ := cp.Frontier()
	return uavnet.Options{S: 3, Workers: 1, StopAfter: done + 64}
}

// TestResumeRejectsCorruptedCheckpointFiles: every file in testdata/corrupt
// loads (it is well-formed JSON) and fails the resume with an error naming
// the edited field.
func TestResumeRejectsCorruptedCheckpointFiles(t *testing.T) {
	in := compatInstance(t)
	for name, field := range map[string]string{
		"enum-negative-loc.ckpt":       "best.locs[0]",
		"enum-nsel-past-locs.ckpt":     "best.nsel",
		"portfolio-negative-cell.ckpt": "current",
	} {
		cp, err := uavnet.LoadRunCheckpoint(filepath.Join(corruptDir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, _, err := uavnet.Solve(context.Background(), in, resumeOptions(cp), 0, cp); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: got %v, want an error naming %s", name, err, field)
		}
	}
}

// FuzzResumeCheckpoint feeds arbitrary bytes through LoadRunCheckpoint and
// a resumed Solve on the compat scenario. Every input must end in an error
// or in a deployment that passes the feasibility oracle — never a panic.
func FuzzResumeCheckpoint(f *testing.F) {
	for _, dir := range []string{compatDir, corruptDir} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	in := compatInstance(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := uavnet.LoadRunCheckpoint(path)
		if err != nil {
			return
		}
		dep, _, err := uavnet.Solve(context.Background(), in, resumeOptions(cp), 0, cp)
		if err != nil {
			return
		}
		if rep := uavnet.Verify(in, dep); !rep.OK() {
			t.Fatalf("resumed deployment fails the oracle: %v", rep.Err())
		}
	})
}
