package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	uavnet "github.com/uav-coverage/uavnet"
)

// job is one arrival of the open loop.
type job struct {
	due      time.Duration // scheduled arrival, from the start of the loop
	s        int
	scSeed   int64
	scenario *uavnet.Scenario
	body     []byte
	repeats  int // index of the job this one resubmits, or -1

	// Observed by the client, as offsets from the start of the loop.
	sent, submitted, running, done, resultStart, resultEnd time.Duration
	id                                                     string
	created                                                bool // 201: new job; 200: dedupe hit
	result                                                 []byte
	err                                                    error
}

func (m *serveMix) jobCount(seconds int) int {
	return max(1, int(math.Round(m.rate*float64(seconds))))
}

// makeJobs builds the arrival schedule: jobCount arrivals placed uniformly at
// random over the run (a Poisson process conditioned on its count, so every
// seed submits the same number of jobs), an exact resubmitShare of them
// repeating an earlier fresh job, and an exact bigShare of the fresh ones,
// evenly spaced, solved at s = 3.
func (w *workload) makeJobs(seed int64, seconds int) ([]*job, error) {
	m := w.serve
	n := m.jobCount(seconds)
	rng := rand.New(rand.NewSource(int64(splitmix(uint64(seed)) >> 1)))
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * float64(seconds)
	}
	sort.Float64s(dues)

	// Resubmissions go only to arrivals at or after minBack.
	nResub := 0
	if n > m.minBack {
		nResub = min(int(math.Round(m.resubmitShare*float64(n))), n-m.minBack)
	}
	isResub := make([]bool, n)
	for _, i := range rng.Perm(n - m.minBack)[:nResub] {
		isResub[m.minBack+i] = true
	}
	nFresh := n - nResub
	// s = 3 jobs are spread evenly over the fresh ones from a seeded offset:
	// placed at random, two or three of them would often arrive together,
	// block both workers, and move the median job's latency with the seed.
	nBig := int(math.Round(m.bigShare * float64(nFresh)))
	bigRank := map[int]bool{}
	if nBig > 0 {
		spacing := float64(nFresh) / float64(nBig)
		offset := rng.Float64() * spacing
		for k := 0; k < nBig; k++ {
			bigRank[int(offset+float64(k)*spacing)] = true
		}
	}

	jobs := make([]*job, n)
	fresh := 0
	for i := range jobs {
		j := &job{due: time.Duration(dues[i] * float64(time.Second)), repeats: -1}
		jobs[i] = j
		if isResub[i] {
			// Repeat a uniformly chosen fresh job at least minBack arrivals
			// back; fresh arrivals fill all of 0..minBack-1, so one exists.
			for {
				k := rng.Intn(i - m.minBack + 1)
				if jobs[k].repeats < 0 {
					j.repeats = k
					j.s, j.scSeed, j.scenario, j.body = jobs[k].s, jobs[k].scSeed, jobs[k].scenario, jobs[k].body
					break
				}
			}
			continue
		}
		j.s = 2
		if bigRank[fresh] {
			j.s = 3
		}
		sc, scSeed, err := w.scenario(seed, fresh)
		if err != nil {
			return nil, err
		}
		fresh++
		body, err := submitBody(sc, j.s)
		if err != nil {
			return nil, err
		}
		j.scSeed, j.scenario, j.body = scSeed, sc, body
	}
	return jobs, nil
}

// submitBody is a POST /v1/jobs request: the saved-scenario file (what
// uavgen -out writes) with an options object spliced in before its closing
// brace. workers 1 makes each of uavserve's two workers solve on one core,
// so two running jobs never share a core; it is an execution hint and not
// part of the job id.
func submitBody(sc *uavnet.Scenario, s int) ([]byte, error) {
	data, err := uavnet.MarshalScenario(sc)
	if err != nil {
		return nil, err
	}
	end := bytes.LastIndexByte(data, '}')
	if end < 0 {
		return nil, fmt.Errorf("scenario JSON has no closing brace")
	}
	return append(data[:end], `,"options":{"s":`+strconv.Itoa(s)+`,"workers":1}}`...), nil
}

// server is a running uavserve, started through the launcher.
type server struct {
	l      *launched
	base   string
	stderr bytes.Buffer // read only after exited is closed
	exited chan struct{}
	report launchReport
	err    error
}

// startServer starts uavserve over a fresh job directory and waits until
// /healthz answers.
func startServer(ctx context.Context, e *env, m *serveMix, dir string) (*server, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{base: "http://" + addr, exited: make(chan struct{})}
	s.l, err = startLaunched(e.bin, filepath.Join(e.bin, "uavserve"), []string{"-dir", dir, "-addr", addr,
		"-workers", strconv.Itoa(m.workers), "-checkpoint-every", m.checkpointEvery.String()}, io.Discard, &s.stderr)
	if err != nil {
		return nil, err
	}
	go func() {
		s.report, s.err = s.l.wait()
		close(s.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("uavserve exited during start-up: %v: %s", s.err, bytes.TrimSpace(s.stderr.Bytes()))
		case <-ctx.Done():
			_, _ = s.stop() // the start-up failure is the error reported
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop shuts uavserve down gracefully (SIGTERM) and returns its peak RSS in
// KB. A server that does not exit within 20 s is killed.
func (s *server) stop() (int64, error) {
	if err := s.l.signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return 0, err
	}
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.l.kill() // already failing; the wait goroutine reaps the launcher
		<-s.exited
		return 0, fmt.Errorf("uavserve did not stop within 20s after SIGTERM")
	}
	if s.err != nil {
		return s.report.MaxRSSKB, fmt.Errorf("uavserve: %w: %s", s.err, bytes.TrimSpace(s.stderr.Bytes()))
	}
	return s.report.MaxRSSKB, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// openLoop submits every job at its scheduled time from one goroutine and
// observes completion from another, polling GET /v1/jobs/{id} for every
// outstanding job on a fixed tick and fetching the result once a job is done.
// The two goroutines each hold at most one connection, so the client never
// opens more than two (the reference box's core count). The loop returns
// when every job has its result or failed, or ctx ends, and reports the
// latest any arrival was sent after it was due.
func openLoop(ctx context.Context, base string, m *serveMix, jobs []*job) (lagMax time.Duration) {
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		Timeout:   30 * time.Second,
	}
	defer client.CloseIdleConnections()
	start := time.Now()
	var (
		mu        sync.Mutex // guards submitted and the job fields both goroutines touch
		submitted int
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, j := range jobs {
			if wait := j.due - time.Since(start); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return
				}
			}
			sent := time.Since(start)
			lagMax = max(lagMax, sent-j.due)
			id, created, err := submit(ctx, client, base, j.body)
			mu.Lock()
			j.sent, j.submitted = sent, time.Since(start)
			j.id, j.created, j.err = id, created, err
			submitted = i + 1
			mu.Unlock()
		}
	}()

	tick := time.NewTicker(m.pollTick)
	defer tick.Stop()
	next := 0 // jobs before next are finished
	for next < len(jobs) {
		select {
		case <-ctx.Done():
			mu.Lock()
			for _, j := range jobs[next:] {
				if j.err == nil && j.result == nil {
					j.err = fmt.Errorf("unfinished when the run ended: %w", ctx.Err())
				}
			}
			mu.Unlock()
			wg.Wait()
			return lagMax
		case <-tick.C:
		}
		mu.Lock()
		upto := submitted
		mu.Unlock()
		for _, j := range jobs[next:upto] {
			mu.Lock()
			finished := j.err != nil || j.result != nil
			id := j.id
			mu.Unlock()
			if finished {
				continue
			}
			state, err := pollState(ctx, client, base, id)
			now := time.Since(start)
			mu.Lock()
			switch {
			case err != nil:
				j.err = err
			case state == "running" && j.running == 0:
				j.running = now
			case state == "done":
				if j.running == 0 {
					j.running = now
				}
				j.done = now
			case state == "failed" || state == "cancelled":
				j.err = fmt.Errorf("job %s ended %s", id, state)
			}
			fetch := j.err == nil && j.done > 0
			mu.Unlock()
			if fetch {
				rs := time.Since(start)
				data, err := fetchResult(ctx, client, base, id)
				re := time.Since(start)
				mu.Lock()
				j.resultStart, j.resultEnd, j.result, j.err = rs, re, data, err
				mu.Unlock()
			}
		}
		mu.Lock()
		for next < upto && (jobs[next].err != nil || jobs[next].result != nil) {
			next++
		}
		mu.Unlock()
	}
	wg.Wait()
	return lagMax
}

func submit(ctx context.Context, client *http.Client, base string, body []byte) (string, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", false, err
	}
	req.Header.Set("Content-Type", "application/json")
	data, code, err := do(client, req)
	if err != nil {
		return "", false, err
	}
	if code != http.StatusCreated && code != http.StatusOK {
		return "", false, fmt.Errorf("POST /v1/jobs: status %d: %s", code, bytes.TrimSpace(data))
	}
	var sum struct{ ID string }
	if err := json.Unmarshal(data, &sum); err != nil || sum.ID == "" {
		return "", false, fmt.Errorf("POST /v1/jobs: bad response %q", data)
	}
	return sum.ID, code == http.StatusCreated, nil
}

func pollState(ctx context.Context, client *http.Client, base, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return "", err
	}
	data, code, err := do(client, req)
	if err != nil {
		return "", err
	}
	if code != http.StatusOK {
		return "", fmt.Errorf("GET job %s: status %d", id, code)
	}
	var sum struct{ State string }
	if err := json.Unmarshal(data, &sum); err != nil {
		return "", fmt.Errorf("GET job %s: %w", id, err)
	}
	return sum.State, nil
}

func fetchResult(ctx context.Context, client *http.Client, base, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	data, code, err := do(client, req)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET result %s: status %d", id, code)
	}
	return data, nil
}

func do(client *http.Client, req *http.Request) ([]byte, int, error) {
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// serveRun is one open loop against a fresh uavserve.
type serveRun struct {
	jobs   []*job
	lagMax time.Duration
	setups []float64
	rssKB  int64
}

// runOpenLoop performs set-up (setupReps times: build the job bodies, start
// uavserve on a fresh directory, wait for /healthz; every start but the last
// is stopped again), runs the open loop, and stops the server gracefully.
func runOpenLoop(ctx context.Context, e *env, w *workload, seed int64, seconds int, out *runOutput) (*serveRun, error) {
	r := &serveRun{}
	dir := filepath.Join(e.work, "jobs")
	var srv *server
	for rep := 0; rep < w.setupReps; rep++ {
		start := time.Now()
		jobs, err := w.makeJobs(seed, seconds)
		if err != nil {
			return nil, err
		}
		s, err := startServer(ctx, e, w.serve, dir)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
		r.jobs = jobs
		if rep < w.setupReps-1 {
			if _, err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv = s
	}
	r.lagMax = openLoop(ctx, srv.base, w.serve, r.jobs)
	rss, err := srv.stop()
	if err != nil {
		out.fail("%v", err)
	}
	r.rssKB = rss
	return r, nil
}

// checkJobs verifies every received result against the benchmark's own copy
// of the scenario, checks dedupe, and counts failures. It returns the job
// latencies (scheduled arrival to result bytes received) and served users.
func checkJobs(jobs []*job, out *runOutput) (lat []float64, served int) {
	instances := map[int64]*uavnet.Instance{}
	for i, j := range jobs {
		out.attempted++
		if j.err != nil {
			out.fail("job %d: %v", i, j.err)
			continue
		}
		if j.repeats >= 0 {
			if orig := jobs[j.repeats]; j.created || j.id != orig.id {
				out.fail("job %d: resubmission of job %d was not deduplicated (id %s vs %s, created %v)", i, j.repeats, j.id, orig.id, j.created)
				continue
			}
		} else if !j.created {
			out.fail("job %d: fresh job answered as a duplicate", i)
			continue
		}
		var dep uavnet.Deployment
		if err := json.Unmarshal(j.result, &dep); err != nil {
			out.fail("job %d: result: %v", i, err)
			continue
		}
		if dep.Served == 0 {
			out.fail("job %d: deployment serves no user", i)
			continue
		}
		in, ok := instances[j.scSeed]
		if !ok {
			var err error
			if in, err = uavnet.NewInstance(j.scenario); err != nil {
				out.fail("job %d: %v", i, err)
				continue
			}
			instances[j.scSeed] = in
		}
		if rep := uavnet.Verify(in, &dep); !rep.OK() {
			out.fail("job %d: verification failed: %s", i, rep)
			continue
		}
		lat = append(lat, (j.resultEnd - j.due).Seconds())
		served += dep.Served
	}
	return lat, served
}

// compareBytes re-solves a fixed sample of the fresh jobs in-process (outside
// the timed window) and requires the server's result bytes to equal what
// uavdeploy -out would write for the same problem. The sample is the first
// s = 3 job and the first checkedBytes-1 s = 2 jobs.
func compareBytes(ctx context.Context, jobs []*job, m *serveMix, out *runOutput) {
	var sample []int
	big := false
	for i, j := range jobs {
		switch {
		case j.repeats >= 0 || j.err != nil:
		case j.s == 3 && !big:
			big = true
			sample = append(sample, i)
		case j.s == 2 && len(sample) < m.checkedBytes-1+b2i(big):
			sample = append(sample, i)
		}
	}
	for _, i := range sample {
		j := jobs[i]
		out.attempted++
		want, err := solveBytes(ctx, j.scenario, uavnet.Options{S: j.s, Workers: 1})
		if err != nil {
			out.fail("job %d: in-process solve: %v", i, err)
			continue
		}
		if !bytes.Equal(want, j.result) {
			out.fail("job %d: server result differs from the in-process solve (%d vs %d bytes)", i, len(j.result), len(want))
		}
	}
	out.extra["byte_compared_jobs"] = float64(len(sample))
}

func solveBytes(ctx context.Context, sc *uavnet.Scenario, opts uavnet.Options) ([]byte, error) {
	in, err := uavnet.NewInstance(sc)
	if err != nil {
		return nil, err
	}
	dep, err := uavnet.DeployInstanceContext(ctx, in, opts)
	if err != nil {
		return nil, err
	}
	data, err := uavnet.MarshalDeployment(dep)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// runServe is the end-to-end run of the uavserve workload.
func runServe(ctx context.Context, e *env, w *workload, seed int64, seconds int) (*runOutput, error) {
	out := newRunOutput()
	r, err := runOpenLoop(ctx, e, w, seed, seconds, out)
	if err != nil {
		return nil, err
	}
	lat, served := checkJobs(r.jobs, out)
	compareBytes(ctx, r.jobs, w.serve, out)
	if len(lat) == 0 {
		return nil, fmt.Errorf("no job completed: %v", out.failures)
	}
	out.values["setup_s"] = median(r.setups)
	out.values["latency_s_p50"] = median(lat)
	out.samples = lat
	out.values["served_users"] = float64(served)
	out.values["peak_rss_mb"] = float64(r.rssKB) / 1024
	recordServeExtras(r, lat, out)
	return out, nil
}

func recordServeExtras(r *serveRun, lat []float64, out *runOutput) {
	hits := 0
	var last time.Duration
	for _, j := range r.jobs {
		if j.err == nil && !j.created {
			hits++
		}
		last = max(last, j.resultEnd)
	}
	if last > 0 {
		out.extra["completed_per_s"] = float64(len(lat)) / last.Seconds()
	}
	out.extra["job_s_p90"] = percentile(lat, 90)
	out.extra["latency_samples"] = float64(len(lat))
	out.extra["jobs"] = float64(len(r.jobs))
	out.extra["dedupe_hits"] = float64(hits)
	out.extra["lag_ms_max"] = ms(r.lagMax)
	out.extra["setup_reps"] = float64(len(r.setups))
	out.extra["failed_frac"] = float64(len(out.failures)) / float64(max(out.attempted, 1))
}
