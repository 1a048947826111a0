package uavnet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	uavnet "github.com/uav-coverage/uavnet"
)

// writeFile writes test bytes plainly; durability is not under test here.
func writeFile(t *testing.T, path string, data []byte) error {
	t.Helper()
	return os.WriteFile(path, data, 0o644)
}

// injectField decodes valid JSON into a generic map, adds one unknown key,
// and re-encodes — simulating a typo'd or stale field in a POSTed payload or
// a hand-edited file.
func injectField(t *testing.T, data []byte, key string, val any) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("injectField: source JSON is invalid: %v", err)
	}
	m[key] = val
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("injectField: re-encode: %v", err)
	}
	return out
}

// TestUnmarshalScenarioRejectsUnknownFields pins the input-validation
// contract of the scenario loader: a misspelled key anywhere in the payload
// is an error naming the field, never a silent drop. Scenarios are POSTed by
// untrusted clients to uavserve, and a dropped option key would return a
// valid-looking deployment for a different problem.
func TestUnmarshalScenarioRejectsUnknownFields(t *testing.T) {
	t.Parallel()
	sc, err := uavnet.GenerateScenario(uavnet.ScenarioSpec{N: 20, K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := uavnet.MarshalScenario(sc)
	if err != nil {
		t.Fatal(err)
	}

	// Sanity: the unmodified bytes still load.
	if _, err := uavnet.UnmarshalScenario(data); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}

	bad := injectField(t, data, "scenaro", map[string]any{})
	_, err = uavnet.UnmarshalScenario(bad)
	if err == nil {
		t.Fatal("scenario with misspelled top-level field accepted")
	}
	if !strings.Contains(err.Error(), "scenaro") {
		t.Errorf("error should name the offending field %q, got: %v", "scenaro", err)
	}

	// A typo nested inside the scenario object must be caught too —
	// DisallowUnknownFields applies through the whole decode.
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	inner := m["scenario"].(map[string]any)
	inner["UAVRnage"] = 600.0
	nested, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	_, err = uavnet.UnmarshalScenario(nested)
	if err == nil {
		t.Fatal("scenario with misspelled nested field accepted")
	}
	if !strings.Contains(err.Error(), "UAVRnage") {
		t.Errorf("error should name the offending field %q, got: %v", "UAVRnage", err)
	}
}

// TestLoadCheckpointRejectsUnknownFields pins the same contract for the
// enumeration checkpoint loader: resuming validates checkpoints
// field-by-field, which is only sound if every field in the file was
// actually decoded.
func TestLoadCheckpointRejectsUnknownFields(t *testing.T) {
	t.Parallel()
	sc, err := uavnet.GenerateScenario(uavnet.ScenarioSpec{N: 60, K: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	in, err := uavnet.NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := uavnet.DeployInstanceContext(context.Background(), in, uavnet.Options{StopAfter: 1, Workers: 1})
	if err != nil && dep == nil {
		t.Fatal(err)
	}
	if dep.Checkpoint == nil {
		t.Fatal("StopAfter run produced no checkpoint")
	}
	data, err := dep.Checkpoint.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ok := dir + "/ok.ckpt"
	if err := uavnet.SaveCheckpoint(ok, dep.Checkpoint); err != nil {
		t.Fatal(err)
	}
	if _, err := uavnet.LoadRunCheckpoint(ok); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}

	bad := injectField(t, data, "curser", int64(5))
	if err := writeFile(t, dir+"/bad.ckpt", bad); err != nil {
		t.Fatal(err)
	}
	_, err = uavnet.LoadRunCheckpoint(dir + "/bad.ckpt")
	if err == nil {
		t.Fatal("checkpoint with misspelled field accepted")
	}
	if !strings.Contains(err.Error(), "curser") {
		t.Errorf("error should name the offending field %q, got: %v", "curser", err)
	}
}

// TestLoadPortfolioCheckpointRejectsUnknownFields covers the portfolio
// loader, whose member Extra blobs stay raw JSON (member-validated) while
// the envelope is strict.
func TestLoadPortfolioCheckpointRejectsUnknownFields(t *testing.T) {
	t.Parallel()
	sc, err := uavnet.GenerateScenario(uavnet.ScenarioSpec{N: 60, K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	in, err := uavnet.NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	// A portfolio checkpoint is only emitted for stopped races; an
	// already-cancelled context stops the race deterministically at step 0.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	opts := uavnet.Options{Solver: "anneal", SolverBudget: 50, Seed: 7}
	_, cp, err := uavnet.DeployPortfolioContext(cancelled, in, opts, nil)
	if err == nil {
		t.Fatal("cancelled race should report its context error")
	}
	if cp == nil {
		t.Fatal("stopped portfolio run returned no checkpoint")
	}
	data, err := cp.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := writeFile(t, dir+"/ok.ckpt", data); err != nil {
		t.Fatal(err)
	}
	if _, err := uavnet.LoadRunCheckpoint(dir + "/ok.ckpt"); err != nil {
		t.Fatalf("valid portfolio checkpoint rejected: %v", err)
	}

	bad := injectField(t, data, "sovler", "anneal")
	if err := writeFile(t, dir+"/bad.ckpt", bad); err != nil {
		t.Fatal(err)
	}
	_, err = uavnet.LoadRunCheckpoint(dir + "/bad.ckpt")
	if err == nil {
		t.Fatal("portfolio checkpoint with misspelled field accepted")
	}
	if !strings.Contains(err.Error(), "sovler") {
		t.Errorf("error should name the offending field %q, got: %v", "sovler", err)
	}
}

// TestUnmarshalScenarioTrailingBytes pins the strict-JSON rule on the
// scenario loader, in the indented layout SaveScenario writes and in the
// compact one uavserve re-assembles from a POST body: a second value or
// any junk after the scenario is an error, a trailing newline is not.
func TestUnmarshalScenarioTrailingBytes(t *testing.T) {
	t.Parallel()
	sc, err := uavnet.GenerateScenario(uavnet.ScenarioSpec{N: 20, K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	indented, err := uavnet.MarshalScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, indented); err != nil {
		t.Fatal(err)
	}
	for _, valid := range [][]byte{indented, compact.Bytes()} {
		for _, tail := range []string{"", "\n", " \r\n\t"} {
			if _, err := uavnet.UnmarshalScenario(append(append([]byte{}, valid...), tail...)); err != nil {
				t.Errorf("scenario + %q rejected: %v", tail, err)
			}
		}
		for _, tail := range []string{"x", "{}", " garbage", `{"version":2}`} {
			if _, err := uavnet.UnmarshalScenario(append(append([]byte{}, valid...), tail...)); err == nil {
				t.Errorf("scenario + %q accepted", tail)
			}
		}
	}
}
