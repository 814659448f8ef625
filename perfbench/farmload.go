package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"nektar/internal/farm"
)

// farmJobSeed gives client c's j-th job of a sample a seed no other job
// of the run shares, so no submission is answered from the result
// cache and every job is a distinct trajectory.
func farmJobSeed(sp sampleSpec, client, j int) int64 {
	return sp.Seed*100_000_000 + int64(sp.Sample)*1_000_000 + int64(client)*100_000 + int64(j) + 1
}

func farmSpec(sp sampleSpec, jobSeed int64) farm.JobSpec {
	return farm.JobSpec{Workload: "turb2d", Nt: sp.JobN, Steps: sp.JobSteps,
		Seed: jobSeed, CkptEvery: sp.CkptEvery}
}

// openFarm opens a farm on dir. It returns the host wall and process
// CPU seconds of the farm.Open call.
func openFarm(dir string, workers int) (f *farm.Farm, wall, cpu float64, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, 0, err
	}
	t0, c0 := time.Now(), procCPU()
	f, err = farm.Open(farm.Config{Dir: dir, Workers: workers, Seed: 1})
	return f, time.Since(t0).Seconds(), procCPU() - c0, err
}

// farmHistoryJobs is how many finished jobs the journal of a farm
// restart holds. At eight records each (submitted, running, five
// checkpoints, done) that is 960 records, under the 1024 from which
// farm.Open compacts the journal.
const farmHistoryJobs = 120

// writeHistory writes to dir, in one fsynced batch, the journal a farm
// leaves after running farmHistoryJobs seed-derived jobs of this
// sample's shape to completion.
func writeHistory(dir string, sp sampleSpec) error {
	jl, _, err := farm.OpenJournal(filepath.Join(dir, "wal.nkj"))
	if err != nil {
		return err
	}
	var es []*farm.Entry
	for i := 0; i < farmHistoryJobs; i++ {
		id := fmt.Sprintf("j%08d", i+1)
		spec := farmSpec(sp, sp.Seed*1000+int64(i))
		spec.Tenant = "default"
		sum := sha256.Sum256([]byte(id + spec.Key()))
		es = append(es,
			&farm.Entry{Job: id, Ev: farm.EvSubmitted, Spec: &spec},
			&farm.Entry{Job: id, Ev: farm.EvRunning, Attempt: 1, Worker: i % sp.Workers})
		for step := sp.CkptEvery; step <= sp.JobSteps; step += sp.CkptEvery {
			es = append(es, &farm.Entry{Job: id, Ev: farm.EvCheckpointed, Step: step})
		}
		es = append(es, &farm.Entry{Job: id, Ev: farm.EvDone, Step: sp.JobSteps,
			Result: &farm.Result{Hash: hex.EncodeToString(sum[:]), Steps: sp.JobSteps, Bytes: 1 << 16}})
	}
	if err := jl.Append(es...); err != nil {
		jl.Close()
		return err
	}
	return jl.Close()
}

// farmSetups is the farm's set-up: farm.Open restarting on a copy of a
// journal of farmHistoryJobs finished jobs, sp.SetupReps times, each
// on a fresh directory. Replaying the journal is the farm's own
// start-up work; an open on an empty directory is a few syscalls, too
// short to time steadily.
func farmSetups(sp sampleSpec, res *sampleResult) error {
	hist := filepath.Join(sp.Dir, "history")
	if err := writeHistory(hist, sp); err != nil {
		return fmt.Errorf("farm history: %w", err)
	}
	wal, err := os.ReadFile(filepath.Join(hist, "wal.nkj"))
	if err != nil {
		return err
	}
	for i := 0; i < sp.SetupReps; i++ {
		dir := filepath.Join(sp.Dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "wal.nkj"), wal, 0o644); err != nil {
			return err
		}
		f, wall, cpu, err := openFarm(dir, sp.Workers)
		if err != nil {
			return fmt.Errorf("farm.Open: %w", err)
		}
		if st := f.Snapshot(); st.Done != farmHistoryJobs {
			f.Close()
			return fmt.Errorf("farm.Open replayed %d finished jobs, want %d", st.Done, farmHistoryJobs)
		}
		res.SetupS, res.SetupCPU = append(res.SetupS, wall), append(res.SetupCPU, cpu)
		if err := f.Close(); err != nil {
			return fmt.Errorf("farm close: %w", err)
		}
	}
	return nil
}

// runFarm is farm-turb2d: an in-process farm on a fresh directory,
// driven by a closed loop of clients that each submit one job and wait
// for it to finish before submitting the next, until the time budget
// runs out.
func runFarm(sp sampleSpec, rec *recorder) (*sampleResult, error) {
	res := &sampleResult{}
	if err := farmSetups(sp, res); err != nil {
		return nil, err
	}
	// The closed loop runs on a fresh farm, so its journal starts empty
	// and no compaction falls into the timed loop.
	dir := filepath.Join(sp.Dir, "farm")
	t0 := time.Now()
	f, wall, _, err := openFarm(dir, sp.Workers)
	if err != nil {
		return nil, fmt.Errorf("farm.Open: %w", err)
	}
	rec.add("setup", "setup", 0, t0, t0.Add(time.Duration(wall*1e9)))

	start, c0 := time.Now(), procCPU()
	deadline := start.Add(time.Duration(sp.Seconds * float64(time.Second)))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, sp.Clients)
	for c := 0; c < sp.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; time.Now().Before(deadline); j++ {
				jr, err := farmJob(f, sp, farmJobSeed(sp, c, j), rec)
				if err != nil {
					errs[c] = err
					return
				}
				mu.Lock()
				res.Jobs = append(res.Jobs, jr)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.HostS = time.Since(start).Seconds()
	res.LoopCPU = procCPU() - c0
	res.MemMB = memMB()
	st := f.Snapshot()
	res.Attempts, res.WAL = st.Attempts, st.WALRecords
	res.Lost = len(res.Jobs) - st.Done - st.Failed - st.Cancelled
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("farm close: %w", err)
	}
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	if rec != nil {
		b, err := dirBytes(filepath.Join(dir, "jobs"))
		if err != nil {
			return nil, err
		}
		res.Layer = farmLayer(res, float64(b))
	}
	return res, nil
}

// pollEvery is how often a waiting client reads its job's status: well
// under a job's run time, so the latency it adds is small.
const pollEvery = 500 * time.Microsecond

// farmJob submits one job and waits for it to reach a terminal state.
func farmJob(f *farm.Farm, sp sampleSpec, seed int64, rec *recorder) (jobRecord, error) {
	jr := jobRecord{Seed: seed}
	t0 := time.Now()
	st, cached, err := f.Submit(farmSpec(sp, seed))
	t1 := time.Now()
	if err != nil {
		return jr, fmt.Errorf("farm.Submit: %w", err)
	}
	jr.ID, jr.Cached = st.ID, cached
	running := time.Time{}
	for !st.State.Terminal() {
		time.Sleep(pollEvery)
		var ok bool
		if st, ok = f.Status(jr.ID); !ok {
			return jr, fmt.Errorf("farm lost job %s", jr.ID)
		}
		if running.IsZero() && st.State != farm.StateQueued {
			running = time.Now()
		}
	}
	done := time.Now()
	if running.IsZero() {
		running = done
	}
	jr.State = string(st.State)
	if st.Result != nil {
		jr.Hash = st.Result.Hash
	}
	jr.SubmitS = t1.Sub(t0).Seconds()
	jr.QueueS = running.Sub(t0).Seconds()
	jr.RunS = done.Sub(running).Seconds()
	jr.LatencyS = done.Sub(t0).Seconds()
	if rec != nil {
		trace := "job-" + jr.ID
		id := rec.add("farm.job", trace, 0, t0, done)
		rec.add("farm.submit", trace, id, t0, t1)
		rec.add("farm.queue", trace, id, t1, running)
		rec.add("farm.run", trace, id, running, done)
	}
	return jr, nil
}

// farmReference computes the untimed farm.RunSpec hash of every job
// seed, two at a time.
func farmReference(sp sampleSpec) (*sampleResult, error) {
	res := &sampleResult{RefHash: make([]string, len(sp.RefSeeds))}
	errs := make([]error, len(sp.RefSeeds))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i, seed := range sp.RefSeeds {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, seed int64) {
			defer func() { <-sem; wg.Done() }()
			r, err := farm.RunSpec(farmSpec(sp, seed))
			res.RefHash[i], errs[i] = r.Hash, err
		}(i, seed)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("farm.RunSpec: %w", e)
		}
	}
	return res, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// farmLayer is the per-layer view of one traced farm run.
func farmLayer(res *sampleResult, jobsBytes float64) map[string]float64 {
	var sub, queue, run []float64
	for _, j := range res.Jobs {
		sub = append(sub, j.SubmitS*1e3)
		queue = append(queue, j.QueueS)
		run = append(run, j.RunS)
	}
	n := float64(len(res.Jobs))
	return map[string]float64{
		"farm.submit_ms":           median(sub),
		"farm.queue_wait_s":        median(queue),
		"farm.run_s":               median(run),
		"farm.attempts_per_job":    float64(res.Attempts) / n,
		"farm.wal_records_per_job": float64(res.WAL) / n,
		"ckpt.bytes_per_job":       jobsBytes / n,
	}
}
