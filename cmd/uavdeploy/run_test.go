package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	uavnet "github.com/uav-coverage/uavnet"
	"github.com/uav-coverage/uavnet/internal/server"
)

// The compatibility fixtures (see the root package's compat_test.go): a
// 150-user m=36 scenario, checkpoints of both kinds written by an earlier
// release, and the uninterrupted s=3 deployment.
var fixture = filepath.Join("..", "..", "testdata", "compat")

func fixturePath(name string) string { return filepath.Join(fixture, name) }

// TestResumeWrongKindNamesBothKinds: -resume reads the kind from the file,
// not from -solver, and a mismatch names both kinds.
func TestResumeWrongKindNamesBothKinds(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-resume", fixturePath("portfolio.ckpt")},
			`checkpoint is a portfolio run (solver "portfolio"); the options select the enumeration`},
		{[]string{"-solver", "anneal", "-resume", fixturePath("enum-stopafter.ckpt")},
			`checkpoint is an enumeration run; the options select solver "anneal"`},
	}
	for _, tc := range cases {
		args := append([]string{"-scenario", fixturePath("scenario.json"), "-s", "3", "-map=false"}, tc.args...)
		if err := run(args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("uavdeploy %v: err %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestShardsResumeMatchesUninterrupted: -shards with -resume runs the resume
// unsharded and writes the uninterrupted run's bytes.
func TestShardsResumeMatchesUninterrupted(t *testing.T) {
	want, err := os.ReadFile(fixturePath("deployment.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ckpt := range []string{"enum-stopafter.ckpt", "merged.ckpt"} {
		out := filepath.Join(t.TempDir(), "resumed.json")
		args := []string{"-scenario", fixturePath("scenario.json"), "-s", "3", "-map=false",
			"-shards", "3", "-resume", fixturePath(ckpt), "-out", out}
		if err := run(args); err != nil {
			t.Fatalf("resume %s: %v", ckpt, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("-shards 3 -resume %s differs from the uninterrupted deployment", ckpt)
		}
	}
}

// TestFlagRulesMatchValidate feeds every combination uavnet.ValidateOptions
// rejects through both front ends — uavserve's JobOptions.Validate (where
// the combination is expressible in JSON) and uavdeploy's flags — and
// requires the same error from all of them: the rules live in one place.
func TestFlagRulesMatchValidate(t *testing.T) {
	gateway := []int{0} // any required cell stands for a gateway
	cases := []struct {
		name   string
		opts   uavnet.Options
		shards int
		job    *server.JobOptions
		flags  []string
	}{
		{"budget on the enumeration", uavnet.Options{SolverBudget: 100}, 0,
			&server.JobOptions{SolverBudget: 100}, []string{"-budget", "100"}},
		{"unknown solver", uavnet.Options{Solver: "magic"}, 0,
			&server.JobOptions{Solver: "magic"}, []string{"-solver", "magic"}},
		{"metaheuristic shards", uavnet.Options{Solver: "anneal"}, 2,
			&server.JobOptions{Solver: "anneal", Shards: 2}, []string{"-solver", "anneal", "-shards", "2"}},
		{"metaheuristic subset cap", uavnet.Options{Solver: "anneal", MaxSubsets: 5}, 0,
			&server.JobOptions{Solver: "anneal", MaxSubsets: 5}, []string{"-solver", "anneal", "-max-subsets", "5"}},
		{"metaheuristic gateway", uavnet.Options{Solver: "anneal", RequiredCells: gateway}, 0,
			nil, []string{"-solver", "anneal", "-gateway", "1200,1200"}},
		{"sharded gateway", uavnet.Options{RequiredCells: gateway}, 2,
			nil, []string{"-shards", "2", "-gateway", "1200,1200"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := uavnet.ValidateOptions(tc.opts, tc.shards)
			if want == nil {
				t.Fatal("ValidateOptions accepted the combination")
			}
			if tc.job != nil {
				if err := tc.job.Validate(); err == nil || err.Error() != want.Error() {
					t.Errorf("JobOptions.Validate: %v, want %v", err, want)
				}
			}
			args := append([]string{"-scenario", fixturePath("scenario.json"), "-map=false"}, tc.flags...)
			if err := run(args); err == nil || err.Error() != want.Error() {
				t.Errorf("uavdeploy %v: %v, want %v", tc.flags, err, want)
			}
		})
	}
}
