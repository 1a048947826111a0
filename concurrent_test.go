package uavnet_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	uavnet "github.com/uav-coverage/uavnet"
)

// These tests pin the re-entrancy contract the uavserve worker pool depends
// on: any number of DeployInstanceContext / DeployPortfolioContext jobs may run
// simultaneously — over distinct scenarios or over one shared scenario and
// instance — and each must produce a deployment byte-identical to the same
// solve run alone. Run them under -race (CI does): the assertion here is as
// much "no data races in the shared precomputed structures" as it is
// "identical bytes".

func concurrencyScenario(t *testing.T, seed int64) *uavnet.Scenario {
	t.Helper()
	sc, err := uavnet.GenerateScenario(uavnet.ScenarioSpec{
		AreaSide: 2000, CellSide: 400, N: 80, K: 4, CMin: 15, CMax: 40, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func deployBytes(t *testing.T, dep *uavnet.Deployment) []byte {
	t.Helper()
	data, err := uavnet.MarshalDeployment(dep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestConcurrentDeployDistinctScenarios(t *testing.T) {
	const jobs = 4
	scenarios := make([]*uavnet.Scenario, jobs)
	solo := make([][]byte, jobs)
	opts := uavnet.Options{S: 3, Workers: 2}
	for i := range scenarios {
		scenarios[i] = concurrencyScenario(t, int64(i+1))
		in, err := uavnet.NewInstance(scenarios[i])
		if err != nil {
			t.Fatal(err)
		}
		dep, err := uavnet.DeployInstanceContext(context.Background(), in, opts)
		if err != nil {
			t.Fatalf("solo job %d: %v", i, err)
		}
		solo[i] = deployBytes(t, dep)
	}

	got := make([][]byte, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i := range scenarios {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in, err := uavnet.NewInstance(scenarios[i])
			if err != nil {
				errs[i] = err
				return
			}
			dep, err := uavnet.DeployInstanceContext(context.Background(), in, opts)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = deployBytes(t, dep)
		}(i)
	}
	wg.Wait()
	for i := range scenarios {
		if errs[i] != nil {
			t.Fatalf("concurrent job %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], solo[i]) {
			t.Errorf("job %d: concurrent deployment differs from the solo run", i)
		}
	}
}

func TestConcurrentDeploySharedInstance(t *testing.T) {
	sc := concurrencyScenario(t, 9)
	in, err := uavnet.NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Different seeds force genuinely different enumerations over the same
	// shared precomputed instance — the hardest sharing case.
	seeds := []int64{0, 1, 2, 3}
	solo := make([][]byte, len(seeds))
	for i, seed := range seeds {
		dep, err := uavnet.DeployInstanceContext(context.Background(), in, uavnet.Options{S: 3, Seed: seed, MaxSubsets: 300})
		if err != nil {
			t.Fatalf("solo seed %d: %v", seed, err)
		}
		solo[i] = deployBytes(t, dep)
	}

	got := make([][]byte, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			dep, err := uavnet.DeployInstanceContext(context.Background(), in, uavnet.Options{S: 3, Seed: seed, MaxSubsets: 300})
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = deployBytes(t, dep)
		}(i, seed)
	}
	wg.Wait()
	for i := range seeds {
		if errs[i] != nil {
			t.Fatalf("concurrent seed %d: %v", seeds[i], errs[i])
		}
		if !bytes.Equal(got[i], solo[i]) {
			t.Errorf("seed %d: concurrent deployment over the shared instance differs from the solo run", seeds[i])
		}
	}
}

func TestConcurrentPortfolioAndEnum(t *testing.T) {
	sc := concurrencyScenario(t, 11)
	in, err := uavnet.NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	enumOpts := uavnet.Options{S: 3, Workers: 2}
	portOpts := uavnet.Options{S: 3, Solver: "portfolio", SolverBudget: 2000}

	soloEnum, err := uavnet.DeployInstanceContext(context.Background(), in, enumOpts)
	if err != nil {
		t.Fatal(err)
	}
	soloPort, _, err := uavnet.DeployPortfolioContext(context.Background(), in, portOpts, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantEnum := deployBytes(t, soloEnum)
	wantPort := deployBytes(t, soloPort)

	// Race an enumeration against two portfolio jobs on the same instance.
	var wg sync.WaitGroup
	var gotEnum []byte
	gotPort := make([][]byte, 2)
	errs := make([]error, 3)
	wg.Add(3)
	go func() {
		defer wg.Done()
		dep, err := uavnet.DeployInstanceContext(context.Background(), in, enumOpts)
		if err != nil {
			errs[0] = err
			return
		}
		gotEnum = deployBytes(t, dep)
	}()
	for i := 0; i < 2; i++ {
		go func(i int) {
			defer wg.Done()
			dep, _, err := uavnet.DeployPortfolioContext(context.Background(), in, portOpts, nil)
			if err != nil {
				errs[i+1] = err
				return
			}
			gotPort[i] = deployBytes(t, dep)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent job %d: %v", i, err)
		}
	}
	if !bytes.Equal(gotEnum, wantEnum) {
		t.Error("concurrent enumeration differs from the solo run")
	}
	for i, got := range gotPort {
		if !bytes.Equal(got, wantPort) {
			t.Errorf("concurrent portfolio job %d differs from the solo run", i)
		}
	}
}
