package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	uavnet "github.com/uav-coverage/uavnet"
)

func TestParseShard(t *testing.T) {
	good := map[string]uavnet.ShardSpec{
		"0/1":  {Index: 0, Count: 1},
		"0/4":  {Index: 0, Count: 4},
		"3/4":  {Index: 3, Count: 4},
		"7/16": {Index: 7, Count: 16},
	}
	for in, want := range good {
		got, err := parseShard(in)
		if err != nil || got != want {
			t.Errorf("parseShard(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "3", "/", "1/", "/4", "4/4", "5/4", "-1/4", "0/0", "0/-2", "a/4", "0/b", "0/4/2", "0 /4"} {
		if got, err := parseShard(in); err == nil {
			t.Errorf("parseShard(%q) = %v, want error", in, got)
		}
	}
}

// writeTestScenario generates a small 9-cell scenario and saves it, returning
// the path and the precomputed instance for reference runs.
func writeTestScenario(t *testing.T, dir string) (string, *uavnet.Instance) {
	t.Helper()
	sc, err := uavnet.GenerateScenario(uavnet.ScenarioSpec{
		AreaSide: 1500, CellSide: 500, N: 40, K: 3, CMin: 10, CMax: 25, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "scenario.json")
	if err := uavnet.SaveScenario(path, sc); err != nil {
		t.Fatal(err)
	}
	in, err := uavnet.NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	return path, in
}

// referenceDeployment solves the instance single-process and renders it the
// way SaveDeployment would, for byte comparison against the CLI output.
func referenceDeployment(t *testing.T, in *uavnet.Instance, opts uavnet.Options) []byte {
	t.Helper()
	dep, err := uavnet.DeployInstanceContext(context.Background(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := uavnet.MarshalDeployment(dep)
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func TestWorkerMergeMatchesSingleProcess(t *testing.T) {
	dir := t.TempDir()
	scPath, in := writeTestScenario(t, dir)

	const shards = 3
	parts := make([]string, shards)
	for i := range parts {
		parts[i] = filepath.Join(dir, fmt.Sprintf("part%d.ckpt", i))
		args := []string{
			"-scenario", scPath,
			"-shard", fmt.Sprintf("%d/%d", i, shards),
			"-out", parts[i],
			"-s", "2",
		}
		if err := workerCmd(args); err != nil {
			t.Fatalf("worker %d/%d: %v", i, shards, err)
		}
	}

	depPath := filepath.Join(dir, "merged.json")
	args := append([]string{"-scenario", scPath, "-out", depPath, "-verify", "-s", "2"}, parts...)
	if err := mergeCmd(args); err != nil {
		t.Fatalf("merge: %v", err)
	}

	got, err := os.ReadFile(depPath)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceDeployment(t, in, uavnet.Options{S: 2})
	if string(got) != string(want) {
		t.Errorf("merged deployment differs from single-process run:\n got: %s\nwant: %s", got, want)
	}
}

func TestWorkerStopResumeThenMerge(t *testing.T) {
	dir := t.TempDir()
	scPath, in := writeTestScenario(t, dir)

	part0 := filepath.Join(dir, "part0.ckpt")
	part1 := filepath.Join(dir, "part1.ckpt")

	// Interrupt shard 0 deterministically mid-range: 9 cells at s=2 give
	// C(9,2)=36 subsets, so shard 0/2 owns [0,18) and -stop-after 3 cuts it.
	err := workerCmd([]string{
		"-scenario", scPath, "-shard", "0/2", "-out", part0, "-s", "2", "-stop-after", "3",
	})
	if err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("interrupted worker error = %v, want a hint to -resume", err)
	}
	run, err := uavnet.LoadRunCheckpoint(part0)
	if err != nil {
		t.Fatal(err)
	}
	if cp := run.Enum; cp.Cursor != 3 || cp.Complete() {
		t.Fatalf("interrupted shard checkpoint: cursor %d, complete %v; want 3, false", cp.Cursor, cp.Complete())
	}

	// Resume shard 0 to completion, run shard 1 straight through, merge.
	if err := workerCmd([]string{
		"-scenario", scPath, "-shard", "0/2", "-out", part0, "-s", "2", "-resume", part0,
	}); err != nil {
		t.Fatalf("resumed worker: %v", err)
	}
	if err := workerCmd([]string{
		"-scenario", scPath, "-shard", "1/2", "-out", part1, "-s", "2",
	}); err != nil {
		t.Fatalf("worker 1/2: %v", err)
	}
	depPath := filepath.Join(dir, "merged.json")
	if err := mergeCmd([]string{"-scenario", scPath, "-out", depPath, "-s", "2", part0, part1}); err != nil {
		t.Fatalf("merge: %v", err)
	}

	got, err := os.ReadFile(depPath)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceDeployment(t, in, uavnet.Options{S: 2})
	if string(got) != string(want) {
		t.Errorf("merge after stop+resume differs from single-process run:\n got: %s\nwant: %s", got, want)
	}
}

func TestMergeIncompleteWritesResumableCheckpoint(t *testing.T) {
	dir := t.TempDir()
	scPath, in := writeTestScenario(t, dir)

	part0 := filepath.Join(dir, "part0.ckpt")
	part1 := filepath.Join(dir, "part1.ckpt")
	if err := workerCmd([]string{
		"-scenario", scPath, "-shard", "0/2", "-out", part0, "-s", "2", "-stop-after", "3",
	}); err == nil {
		t.Fatal("interrupted worker returned nil error")
	}
	if err := workerCmd([]string{
		"-scenario", scPath, "-shard", "1/2", "-out", part1, "-s", "2",
	}); err != nil {
		t.Fatal(err)
	}

	mergedCkpt := filepath.Join(dir, "merged.ckpt")
	err := mergeCmd([]string{"-scenario", scPath, "-checkpoint", mergedCkpt, "-s", "2", part0, part1})
	ie, ok := err.(incompleteError)
	if !ok {
		t.Fatalf("incomplete merge error = %v (%T), want incompleteError", err, err)
	}
	if len(ie.remaining) != 1 || ie.remaining[0].Start != 3 {
		t.Errorf("remaining = %v, want one span starting at 3", ie.remaining)
	}

	// The merged checkpoint must resume under plain unsharded options to the
	// exact single-process deployment.
	cp, err := uavnet.LoadRunCheckpoint(mergedCkpt)
	if err != nil {
		t.Fatal(err)
	}
	dep, _, err := uavnet.Solve(context.Background(), in, uavnet.Options{S: 2}, 0, cp)
	if err != nil {
		t.Fatal(err)
	}
	data, err := uavnet.MarshalDeployment(dep)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceDeployment(t, in, uavnet.Options{S: 2})
	if string(append(data, '\n')) != string(want) {
		t.Errorf("resumed merge differs from single-process run:\n got: %s\nwant: %s", data, want)
	}
}
