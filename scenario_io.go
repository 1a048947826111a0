package uavnet

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/uav-coverage/uavnet/internal/atomicfile"
	"github.com/uav-coverage/uavnet/internal/solve"
	"github.com/uav-coverage/uavnet/internal/strictjson"
)

// scenarioFile is the on-disk JSON layout, versioned so future format
// changes stay readable.
type scenarioFile struct {
	Version  int       `json:"version"`
	Scenario *Scenario `json:"scenario"`
}

const scenarioFileVersion = 1

// MarshalScenario encodes a scenario as versioned, indented JSON.
func MarshalScenario(sc *Scenario) ([]byte, error) {
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("uavnet: refusing to marshal invalid scenario: %w", err)
	}
	return json.MarshalIndent(scenarioFile{Version: scenarioFileVersion, Scenario: sc}, "", "  ")
}

// UnmarshalScenario decodes and validates a scenario produced by
// MarshalScenario. Decoding is strict: a field name the format does not
// define — a typo'd key, a stale field from another version — is an error,
// not a silent drop. Scenarios arrive from untrusted clients (the uavserve
// POST body is exactly this format), and an option silently ignored is the
// worst possible failure mode: the caller gets a valid-looking answer to a
// different question. For the same reason anything but whitespace after the
// JSON value is an error. Million-user files decode in one pass over data
// (decodeScenarioFast); any input that path declines is decoded whole by
// the strict decoder.
func UnmarshalScenario(data []byte) (*Scenario, error) {
	f := decodeScenarioFast(data)
	if f == nil {
		f = new(scenarioFile)
		if err := strictjson.Unmarshal(data, f); err != nil {
			return nil, fmt.Errorf("uavnet: bad scenario JSON: %w", err)
		}
	}
	if f.Version != scenarioFileVersion {
		return nil, fmt.Errorf("uavnet: unsupported scenario version %d (want %d)", f.Version, scenarioFileVersion)
	}
	if f.Scenario == nil {
		return nil, fmt.Errorf("uavnet: scenario JSON has no scenario object")
	}
	if err := f.Scenario.Validate(); err != nil {
		return nil, fmt.Errorf("uavnet: loaded scenario is invalid: %w", err)
	}
	return f.Scenario, nil
}

// writeFileAtomic writes data to path via a unique temp file in the same
// directory, fsynced and renamed into place with the directory fsynced after
// (see internal/atomicfile). A crash mid-write — even SIGKILL or power loss —
// can then never leave a truncated file at path: readers observe the old
// content or the new, nothing in between, and the observed content is on
// stable storage.
func writeFileAtomic(path string, data []byte) error {
	return atomicfile.WriteFile(path, data, 0o644)
}

// SaveScenario writes a scenario to path as JSON, atomically.
func SaveScenario(path string, sc *Scenario) error {
	data, err := MarshalScenario(sc)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(path, append(data, '\n')); err != nil {
		return fmt.Errorf("uavnet: %w", err)
	}
	return nil
}

// LoadScenario reads a scenario saved by SaveScenario.
func LoadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("uavnet: %w", err)
	}
	return UnmarshalScenario(data)
}

// SaveRunCheckpoint writes a stopped run's checkpoint to path in its own
// JSON format (either kind, byte for byte what the engine's Marshal
// produces, plus a newline), ready for LoadRunCheckpoint and Solve. The write
// is atomic (temp file plus rename), so an interrupted save can never leave a
// truncated checkpoint that would block resuming — the previous file
// survives instead.
func SaveRunCheckpoint(path string, cp *RunCheckpoint) error {
	data, err := cp.Marshal()
	if err != nil {
		return fmt.Errorf("uavnet: %w", err)
	}
	if err := writeFileAtomic(path, append(data, '\n')); err != nil {
		return fmt.Errorf("uavnet: %w", err)
	}
	return nil
}

// SaveCheckpoint is SaveRunCheckpoint for an enumeration checkpoint (the
// dep.Checkpoint of a stopped or partial run). It stays because the
// benchmark harness calls it.
func SaveCheckpoint(path string, cp *Checkpoint) error {
	return SaveRunCheckpoint(path, &RunCheckpoint{Enum: cp})
}

// LoadRunCheckpoint reads a checkpoint of either kind, dispatching on the
// "algorithm" tag the file carries; an unknown tag is rejected by name.
// Resuming validates the checkpoint against the scenario and options, so
// loading performs only structural checks.
func LoadRunCheckpoint(path string) (*RunCheckpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("uavnet: %w", err)
	}
	cp, err := solve.Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("uavnet: %s: %w", path, err)
	}
	return cp, nil
}

// MarshalDeployment encodes a deployment as indented JSON. The encoding is
// deterministic (struct fields, no maps) and excludes the transient
// Checkpoint pointer, so an interrupted-then-resumed run and an
// uninterrupted one marshal to identical bytes — the property the
// resume-equivalence tests and the CI smoke job diff on.
func MarshalDeployment(dep *Deployment) ([]byte, error) {
	if dep == nil {
		return nil, fmt.Errorf("uavnet: nil deployment")
	}
	return json.MarshalIndent(dep, "", "  ")
}

// SaveDeployment writes a deployment to path as JSON, atomically.
func SaveDeployment(path string, dep *Deployment) error {
	data, err := MarshalDeployment(dep)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(path, append(data, '\n')); err != nil {
		return fmt.Errorf("uavnet: %w", err)
	}
	return nil
}
