package uavnet_test

import (
	"os"
	"path/filepath"
	"testing"

	uavnet "github.com/uav-coverage/uavnet"
)

// TestSaveCheckpointNeverObservedPartial hammers SaveCheckpoint with two
// alternating checkpoints of very different sizes while a reader reloads the
// file continuously: every read must parse cleanly and be one of the two
// written states. With a plain truncate-and-write this fails readily (the
// reader catches the file empty or half-written, exactly what a SIGKILL
// mid-save would leave behind and what would block resuming); the atomic
// temp-file-plus-rename protocol makes it impossible. Afterwards no
// temporary files may remain.
func TestSaveCheckpointNeverObservedPartial(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")

	big := &uavnet.Checkpoint{
		Algorithm:     "approAlg",
		Total:         560,
		Cursor:        34,
		Evaluated:     30,
		Pruned:        4,
		RequiredCells: make([]int, 4096),
	}
	for i := range big.RequiredCells {
		big.RequiredCells[i] = i
	}
	small := &uavnet.Checkpoint{Algorithm: "approAlg", Total: 560, Cursor: 12, Evaluated: 10, Pruned: 2}
	if err := uavnet.SaveCheckpoint(path, small); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			cp := small
			if i%2 == 0 {
				cp = big
			}
			if err := uavnet.SaveCheckpoint(path, cp); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	reads := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		run, err := uavnet.LoadRunCheckpoint(path)
		if err != nil {
			t.Fatalf("observed a partial checkpoint after %d clean reads: %v", reads, err)
		}
		cp := run.Enum
		if cp.Cursor != small.Cursor && cp.Cursor != big.Cursor {
			t.Fatalf("read a checkpoint that was never written: cursor %d", cp.Cursor)
		}
		reads++
	}
	if reads == 0 {
		t.Fatal("reader never ran")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "run.ckpt" {
			t.Errorf("stray file left behind: %s", e.Name())
		}
	}
}

func TestSaveCheckpointRelativePath(t *testing.T) {
	// A bare filename exercises the dir == "" branch of the atomic writer.
	t.Chdir(t.TempDir())
	cp := &uavnet.Checkpoint{Algorithm: "approAlg", Total: 10, Cursor: 10}
	if err := uavnet.SaveCheckpoint("run.ckpt", cp); err != nil {
		t.Fatal(err)
	}
	got, err := uavnet.LoadRunCheckpoint("run.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if got.Enum.Cursor != 10 {
		t.Fatalf("cursor %d", got.Enum.Cursor)
	}
	if fi, err := os.Stat("run.ckpt"); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, err %v, want 0644", fi.Mode(), err)
	}
}
