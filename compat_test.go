package uavnet_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	uavnet "github.com/uav-coverage/uavnet"
)

// The files under testdata/compat were written by an earlier release's
// uavgen, uavdeploy and uavshard binaries (and its library, for the
// StopAfter checkpoint) on one 150-user, m=36 scenario:
//
//	enum-stopafter.ckpt        Options{S: 3, StopAfter: 2000}, stopped
//	shard0of3.ckpt             uavshard worker -shard 0/3 -s 3 -stop-after 1500
//	merged.ckpt                uavshard merge of shard0of3.ckpt with complete shards 1/3, 2/3
//	portfolio.ckpt             -solver portfolio -budget 3000 -seed 5, stopped by a deadline
//	deployment.json            uavdeploy -s 3 -out, uninterrupted
//	portfolio-deployment.json  the same portfolio race, uninterrupted
//
// Every checkpoint must still load, resume to the uninterrupted bytes, and —
// for the deterministic runs — be rewritten byte for byte.
const compatDir = "testdata/compat"

var compatPortfolio = uavnet.Options{S: 3, Solver: "portfolio", SolverBudget: 3000, Seed: 5}

func compatInstance(t testing.TB) *uavnet.Instance {
	t.Helper()
	sc, err := uavnet.LoadScenario(filepath.Join(compatDir, "scenario.json"))
	if err != nil {
		t.Fatal(err)
	}
	in, err := uavnet.NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func compatFile(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(compatDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func compatLoad(t *testing.T, name string) *uavnet.RunCheckpoint {
	t.Helper()
	cp, err := uavnet.LoadRunCheckpoint(filepath.Join(compatDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// savedDeployment returns the bytes SaveDeployment writes for dep.
func savedDeployment(t *testing.T, dep *uavnet.Deployment) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dep.json")
	if err := uavnet.SaveDeployment(path, dep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// savedCheckpoint returns the bytes SaveRunCheckpoint writes for cp.
func savedCheckpoint(t *testing.T, cp *uavnet.RunCheckpoint) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := uavnet.SaveRunCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// solveCompat runs Solve and fails unless it completes.
func solveCompat(t *testing.T, in *uavnet.Instance, opts uavnet.Options, shards int, resume *uavnet.RunCheckpoint) *uavnet.Deployment {
	t.Helper()
	dep, _, err := uavnet.Solve(context.Background(), in, opts, shards, resume)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func TestCompatUninterruptedBytes(t *testing.T) {
	in := compatInstance(t)
	if got := savedDeployment(t, solveCompat(t, in, uavnet.Options{S: 3}, 0, nil)); !bytes.Equal(got, compatFile(t, "deployment.json")) {
		t.Error("enumeration deployment differs from the earlier release's")
	}
	if got := savedDeployment(t, solveCompat(t, in, compatPortfolio, 0, nil)); !bytes.Equal(got, compatFile(t, "portfolio-deployment.json")) {
		t.Error("portfolio deployment differs from the earlier release's")
	}
}

func TestCompatEnumStopAfterCheckpoint(t *testing.T) {
	in := compatInstance(t)
	cp := compatLoad(t, "enum-stopafter.ckpt")
	if got := savedDeployment(t, solveCompat(t, in, uavnet.Options{S: 3}, 0, cp)); !bytes.Equal(got, compatFile(t, "deployment.json")) {
		t.Error("resumed deployment differs from the uninterrupted one")
	}
	_, again, err := uavnet.Solve(context.Background(), in, uavnet.Options{S: 3, StopAfter: 2000}, 0, nil)
	if again == nil {
		t.Fatalf("StopAfter run returned no checkpoint: %v", err)
	}
	if !bytes.Equal(savedCheckpoint(t, again), compatFile(t, "enum-stopafter.ckpt")) {
		t.Error("the same StopAfter run writes different checkpoint bytes")
	}
}

// shardPartials runs shards 1/3 and 2/3 to completion with this release.
func shardPartials(t *testing.T, in *uavnet.Instance) []*uavnet.Checkpoint {
	t.Helper()
	var cps []*uavnet.Checkpoint
	for i := 1; i < 3; i++ {
		opts := uavnet.Options{S: 3, Shard: uavnet.ShardSpec{Index: i, Count: 3}}
		dep, cp, err := uavnet.Solve(context.Background(), in, opts, 0, nil)
		if err != nil || dep.Status != uavnet.StatusPartial {
			t.Fatalf("shard %d/3: status %v, err %v", i, dep.Status, err)
		}
		cps = append(cps, cp.Enum)
	}
	return cps
}

func TestCompatShardPartialCheckpoint(t *testing.T) {
	in := compatInstance(t)
	shard0 := uavnet.Options{S: 3, Shard: uavnet.ShardSpec{Index: 0, Count: 3}}
	_, finished, err := uavnet.Solve(context.Background(), in, shard0, 0, compatLoad(t, "shard0of3.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := uavnet.MergeCheckpoints(in, uavnet.Options{S: 3}, append([]*uavnet.Checkpoint{finished.Enum}, shardPartials(t, in)...))
	if err != nil {
		t.Fatal(err)
	}
	if got := savedDeployment(t, dep); !bytes.Equal(got, compatFile(t, "deployment.json")) {
		t.Error("merge after resuming the shard differs from the uninterrupted deployment")
	}
	shard0.StopAfter = 1500
	_, again, _ := uavnet.Solve(context.Background(), in, shard0, 0, nil)
	if again == nil || !bytes.Equal(savedCheckpoint(t, again), compatFile(t, "shard0of3.ckpt")) {
		t.Error("the same stopped shard run writes different checkpoint bytes")
	}
}

func TestCompatMergedCheckpoint(t *testing.T) {
	in := compatInstance(t)
	// A resume runs unsharded whatever the shard count.
	cp := compatLoad(t, "merged.ckpt")
	if got := savedDeployment(t, solveCompat(t, in, uavnet.Options{S: 3}, 3, cp)); !bytes.Equal(got, compatFile(t, "deployment.json")) {
		t.Error("resumed merged checkpoint differs from the uninterrupted deployment")
	}
	parts := append([]*uavnet.Checkpoint{compatLoad(t, "shard0of3.ckpt").Enum}, shardPartials(t, in)...)
	dep, err := uavnet.MergeCheckpoints(in, uavnet.Options{S: 3}, parts)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Checkpoint == nil || !bytes.Equal(savedCheckpoint(t, &uavnet.RunCheckpoint{Enum: dep.Checkpoint}), compatFile(t, "merged.ckpt")) {
		t.Error("the same incomplete merge writes different checkpoint bytes")
	}
}

func TestCompatPortfolioCheckpoint(t *testing.T) {
	in := compatInstance(t)
	cp := compatLoad(t, "portfolio.ckpt")
	if !bytes.Equal(savedCheckpoint(t, cp), compatFile(t, "portfolio.ckpt")) {
		t.Error("a loaded portfolio checkpoint is rewritten with different bytes")
	}
	if got := savedDeployment(t, solveCompat(t, in, compatPortfolio, 0, cp)); !bytes.Equal(got, compatFile(t, "portfolio-deployment.json")) {
		t.Error("resumed portfolio race differs from the uninterrupted one")
	}
}

// TestResumeWrongKindNamesBothKinds pins the loader fix: the checkpoint kind
// comes from the file, and a kind the options do not select is refused with
// both kinds named instead of a decoder error about an unknown field.
func TestResumeWrongKindNamesBothKinds(t *testing.T) {
	in := compatInstance(t)
	cases := []struct {
		file string
		opts uavnet.Options
		want string
	}{
		{"portfolio.ckpt", uavnet.Options{S: 3}, `checkpoint is a portfolio run (solver "portfolio"); the options select the enumeration`},
		{"enum-stopafter.ckpt", uavnet.Options{S: 3, Solver: "anneal"}, `checkpoint is an enumeration run; the options select solver "anneal"`},
	}
	for _, tc := range cases {
		dep, cp, err := uavnet.Solve(context.Background(), in, tc.opts, 0, compatLoad(t, tc.file))
		if err == nil || !strings.Contains(err.Error(), tc.want) || dep != nil || cp != nil {
			t.Errorf("%s under %+v: err %v, want %q and no result", tc.file, tc.opts, err, tc.want)
		}
	}
}

func TestLoadRunCheckpointRejectsUnknownTag(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"tagged":   `{"algorithm": "simplex", "s": 3}`,
		"untagged": `{"s": 3}`,
	} {
		path := filepath.Join(dir, name)
		if err := writeFile(t, path, []byte(body)); err != nil {
			t.Fatal(err)
		}
		_, err := uavnet.LoadRunCheckpoint(path)
		if err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
			t.Errorf("%s: err %v, want an unknown-algorithm error", name, err)
		}
	}
	if _, err := uavnet.LoadRunCheckpoint(filepath.Join(dir, "tagged")); !strings.Contains(err.Error(), `"simplex"`) {
		t.Errorf("error does not name the tag: %v", err)
	}
}
