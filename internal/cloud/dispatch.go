// The cluster's dispatcher. The nodes are partitioned round-robin into
// shards, jobs are admitted in arrival-ordered rounds, and each round runs
// four phases:
//
//  1. fill — service times for the round's uncached model/images keys are
//     dry-run in parallel, then written to the shared cache in admission
//     order (a service time depends only on its key, so which worker
//     computes it cannot change the value);
//  2. steal — a sequential, seeded rebalance: the least-loaded shard steals
//     the tail job from the first profitable victim in its seeded victim
//     order, repeating until no steal is profitable (or a bound is hit);
//  3. dispatch — shards place their queues onto their own nodes
//     concurrently (earliest-available FCFS within the shard, with mid-job
//     crash failover requeued in the shard's queue);
//  4. orphans — jobs no surviving node of their shard could take are placed
//     sequentially across the whole fleet by the same rule, or dropped.
//
// One shard admits the whole trace as a single round: rounds exist only to
// bound cross-shard stealing, and a single round makes the shard's queue the
// fleet's one FCFS queue, so a failed-over job can requeue behind any later
// arrival. More shards admit rounds of admitBatch jobs.
//
// Determinism at any shard count: every cross-shard decision (admission,
// home assignment, stealing, orphan reassignment, counter flushes) happens
// in a sequential phase over deterministic state; the concurrent phases
// (fill, dispatch, node simulation) only touch disjoint state — a shard
// owns its nodes and its obs tracks — so goroutine scheduling cannot leak
// into the result or the exported telemetry.

package cloud

import (
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"powerlens/internal/obs"
	"powerlens/internal/sim"
)

// shardTrackBase hosts per-shard dispatcher events (steals, drops) on trace
// track shardTrackBase+shard, clear of the job (10+) and node (100+) ranges.
const shardTrackBase = 1000

// admitBatch is the number of jobs admitted per round when there is more
// than one shard; stealSeed seeds each shard's steal victim order.
const (
	admitBatch = 32
	stealSeed  = 1
)

// tally accumulates the outcomes of one placement queue: a shard's over the
// whole run, or the fleet-wide orphan pass's.
type tally struct {
	completed   int
	failovers   int
	dropped     int
	lostEnergyJ float64
	lostImages  int
	turnaround  time.Duration
}

// add folds o into t.
func (t *tally) add(o *tally) {
	t.completed += o.completed
	t.failovers += o.failovers
	t.dropped += o.dropped
	t.lostEnergyJ += o.lostEnergyJ
	t.lostImages += o.lostImages
	t.turnaround += o.turnaround
}

// shardState is one dispatcher shard: its owned nodes, its current-round
// queue, and run-total accumulators flushed to shared obs counters in shard
// order (float adds in goroutine order would be nondeterministic).
type shardState struct {
	id      int
	nodes   []int       // owned node indices
	victims []int       // seeded steal order over the other shards
	queue   []queuedJob // current round, sorted by arrival
	orphans []queuedJob // this round's jobs no owned node can take

	tally
	steals int
}

// survivors counts the shard's nodes that are still alive given their
// accumulated load (a node whose scheduled crash precedes its free time can
// never take another job).
func (sh *shardState) survivors(nodes []nodeState, crashAt []time.Duration) int {
	alive := 0
	for _, n := range sh.nodes {
		if nodes[n].free < crashAt[n] {
			alive++
		}
	}
	return alive
}

// load estimates when the shard would drain its current queue: earliest free
// time among surviving nodes plus queued service time spread across them.
// Infinite when no owned node survives — such a shard never steals and is
// always worth stealing from.
func (sh *shardState) load(nodes []nodeState, crashAt []time.Duration, svc func(Job) sim.Result) float64 {
	alive := sh.survivors(nodes, crashAt)
	if alive == 0 {
		return inf
	}
	base := time.Duration(1<<63 - 1)
	for _, n := range sh.nodes {
		if nodes[n].free < crashAt[n] && nodes[n].free < base {
			base = nodes[n].free
		}
	}
	queued := 0.0
	for _, j := range sh.queue {
		queued += svc(j.Job).Time.Seconds()
	}
	return base.Seconds() + queued/float64(alive)
}

const inf = 1e308

// dispatch places jobs on numShards shards and simulates the nodes; see the
// file comment above for the phase structure and the determinism argument.
func dispatch(cfg Config, numShards int, jobs []Job) (Result, error) {
	pending := make([]queuedJob, len(jobs))
	for i, j := range jobs {
		pending[i] = queuedJob{Job: j, orig: j.Arrival}
	}
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].Arrival < pending[j].Arrival })

	admit := len(pending)
	if numShards > 1 {
		admit = admitBatch
	}

	shards := make([]*shardState, numShards)
	for s := range shards {
		shards[s] = &shardState{id: s}
		rng := rand.New(rand.NewSource(stealSeed + int64(s)))
		for _, v := range rng.Perm(numShards) {
			if v != s {
				shards[s].victims = append(shards[s].victims, v)
			}
		}
	}
	nodes := make([]nodeState, cfg.Nodes)
	fleet := make([]int, cfg.Nodes)
	for n := range fleet {
		fleet[n] = n
		sh := shards[n%numShards]
		sh.nodes = append(sh.nodes, n)
	}
	crashAt := cfg.Faults.CrashTimes(cfg.Nodes)

	// Shared service cache. Written only during the sequential part of the
	// fill phase; the concurrent dispatch phase reads it for keys the fill
	// phase guaranteed are present (failovers and steals reuse a round job's
	// own key).
	serviceCache := map[svcKey]sim.Result{}
	svc := func(j Job) sim.Result { return serviceCache[serviceKey(j)] }

	var mJobs, mNodesLost, mLostEnergy, mShardJobs, mSteals obs.Counter
	if cfg.Obs != nil {
		m := cfg.Obs.Metrics
		mJobs = m.Counter("cloud_jobs_total",
			"Dispatched jobs by outcome (completed, failover, dropped).", "outcome")
		mNodesLost = m.Counter("cloud_nodes_lost_total",
			"Nodes whose scheduled crash fell inside the trace.")
		mLostEnergy = m.Counter("cloud_lost_energy_joules_total",
			"Energy burned on work destroyed by node crashes.")
		mShardJobs = m.Counter("cloud_shard_jobs_total",
			"Jobs completed per dispatcher shard.", "shard")
		mSteals = m.Counter("cloud_steals_total",
			"Jobs moved between shard queues by work stealing.", "shard")
	}

	var orphanTally tally
	admitted := 0
	for len(pending) > 0 {
		n := min(admit, len(pending))
		batch := pending[:n]
		pending = pending[n:]

		fillServiceCache(cfg, serviceCache, batch)

		// Home assignment: global admission counter round-robin, so the
		// partition depends only on arrival order. Each shard's queue stays
		// arrival-sorted (a round-robin subsequence of a sorted batch).
		for i := range batch {
			shards[admitted%numShards].queue = append(shards[admitted%numShards].queue, batch[i])
			admitted++
		}

		stealPhase(cfg, shards, nodes, crashAt, svc, n)

		// Concurrent per-shard dispatch: disjoint nodes, disjoint trace
		// tracks, per-shard tallies — nothing shared is written.
		var wg sync.WaitGroup
		for _, sh := range shards {
			wg.Add(1)
			go func(sh *shardState) {
				defer wg.Done()
				sh.orphans = place(cfg, sh.queue, sh.nodes, nodes, crashAt, svc, &sh.tally)
				sh.queue = sh.queue[:0]
			}(sh)
		}
		wg.Wait()

		// Orphan reassignment (sequential, shard order): jobs whose home
		// shard had no surviving feasible node get the whole fleet; jobs
		// the whole fleet cannot take are dropped.
		var orphans []queuedJob
		for _, sh := range shards {
			orphans = append(orphans, sh.orphans...)
		}
		sort.SliceStable(orphans, func(i, j int) bool { return orphans[i].Arrival < orphans[j].Arrival })
		for _, j := range place(cfg, orphans, fleet, nodes, crashAt, svc, &orphanTally) {
			orphanTally.dropped++
			if cfg.Obs != nil {
				mJobs.Inc("dropped")
				cfg.Obs.Tracer.Instant("job", "dropped", 0, j.Arrival,
					map[string]any{"model": j.Graph.Name, "images": j.Images})
			}
		}
	}

	// Flush the tallies in a fixed order — the orphan pass first, then the
	// shards by id — so float sums (lost energy, in the result and its
	// counter) never depend on dispatch goroutine timing.
	var sum tally
	flush := func(t *tally) {
		sum.add(t)
		if cfg.Obs != nil {
			mJobs.Add(float64(t.completed), "completed")
			mJobs.Add(float64(t.failovers), "failover")
			mLostEnergy.Add(t.lostEnergyJ)
		}
	}
	flush(&orphanTally)
	for _, sh := range shards {
		flush(&sh.tally)
		if cfg.Obs != nil {
			label := strconv.Itoa(sh.id)
			mShardJobs.Add(float64(sh.completed), label)
			mSteals.Add(float64(sh.steals), label)
		}
	}

	return finishRun(cfg, nodes, crashAt, sum, mNodesLost)
}

// fillServiceCache dry-runs the batch's uncached model/images keys in
// parallel and commits the results in admission order. A dry run uses a
// fresh executor and controller, so its result is a pure function of the
// key — worker assignment cannot change what gets cached.
func fillServiceCache(cfg Config, cache map[svcKey]sim.Result, batch []queuedJob) {
	var missing []Job
	seen := map[svcKey]bool{}
	for _, j := range batch {
		k := serviceKey(j.Job)
		if _, ok := cache[k]; !ok && !seen[k] {
			seen[k] = true
			missing = append(missing, j.Job)
		}
	}
	results := make([]sim.Result, len(missing))
	// A one-shard round is the whole trace, so bound the dry runs in flight
	// to one multi-shard round's worth.
	sem := make(chan struct{}, admitBatch)
	var wg sync.WaitGroup
	for i := range missing {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			e := newExecutor(cfg)
			results[i] = e.RunTask(missing[i].Graph, missing[i].Images)
		}(i)
	}
	wg.Wait()
	for i, j := range missing {
		cache[serviceKey(j)] = results[i]
	}
}

// stealPhase rebalances the round's queues: the least-loaded shard steals
// the tail job from the first victim in its seeded order for which the move
// is profitable (victim stays at least as loaded as the thief afterwards, so
// a steal is never immediately reversed). Sequential and bounded, hence
// deterministic.
func stealPhase(cfg Config, shards []*shardState, nodes []nodeState, crashAt []time.Duration, svc func(Job) sim.Result, batchSize int) {
	est := make([]float64, len(shards))
	alive := make([]int, len(shards))
	for s, sh := range shards {
		est[s] = sh.load(nodes, crashAt, svc)
		alive[s] = sh.survivors(nodes, crashAt)
	}
	for budget := 2 * batchSize; budget > 0; budget-- {
		thief := -1
		for s := range shards {
			if alive[s] == 0 {
				continue
			}
			if thief < 0 || est[s] < est[thief] {
				thief = s
			}
		}
		if thief < 0 {
			return
		}
		stole := false
		for _, v := range shards[thief].victims {
			vq := shards[v].queue
			if len(vq) == 0 {
				continue
			}
			j := vq[len(vq)-1]
			jt := svc(j.Job).Time.Seconds()
			newThief := est[thief] + jt/float64(alive[thief])
			newVictim := est[v]
			if alive[v] > 0 {
				newVictim = est[v] - jt/float64(alive[v])
			}
			if newVictim < newThief {
				continue // not profitable: would just flip the imbalance
			}
			shards[v].queue = vq[:len(vq)-1]
			requeue(&shards[thief].queue, j)
			est[thief], est[v] = newThief, newVictim
			shards[thief].steals++
			if cfg.Obs != nil {
				cfg.Obs.Tracer.Instant("steal", "steal", shardTrackBase+thief, j.Arrival,
					map[string]any{"from_shard": v, "to_shard": thief, "model": j.Graph.Name})
			}
			stole = true
			break
		}
		if !stole {
			return
		}
	}
}

// place drains queue FCFS onto the node set: each job goes to the set's
// earliest-available node that survives to start it. A node that dies
// mid-job destroys the job's partial work — the energy already burned on it,
// pro-rated from the dry run, is tallied as lost — and the job fails over,
// requeued in queue at the crash instant. Jobs no node in the set can ever
// take are returned in queue order. Everything place writes — the set's
// nodes, t, and trace tracks jobTrackBase+{set} — is private to the set, so
// shards place concurrently.
func place(cfg Config, queue []queuedJob, set []int, nodes []nodeState, crashAt []time.Duration, svc func(Job) sim.Result, t *tally) (stuck []queuedJob) {
	for len(queue) > 0 {
		j := queue[0]
		queue = queue[1:]

		best, bestStart := -1, time.Duration(0)
		for _, n := range set {
			s := maxDur(j.Arrival, nodes[n].free)
			if s >= crashAt[n] {
				continue
			}
			if best < 0 || s < bestStart {
				best, bestStart = n, s
			}
		}
		if best < 0 {
			stuck = append(stuck, j)
			continue
		}
		ns := &nodes[best]
		dry := svc(j.Job)
		end := bestStart + dry.Time
		if end > crashAt[best] {
			ran := crashAt[best] - bestStart
			frac := ran.Seconds() / dry.Time.Seconds()
			t.lostEnergyJ += dry.EnergyJ * frac
			t.lostImages += int(float64(j.Images)*frac + 0.5)
			t.failovers++
			if cfg.Obs != nil {
				cfg.Obs.Tracer.Complete("job", j.Graph.Name+" (lost)", jobTrackBase+best,
					bestStart, ran, map[string]any{"node": best, "aborted": true})
				cfg.Obs.Tracer.Instant("job", "failover", jobTrackBase+best, crashAt[best],
					map[string]any{"model": j.Graph.Name, "node": best})
			}
			ns.free = crashAt[best]
			j.Arrival = crashAt[best]
			requeue(&queue, j)
			continue
		}
		if len(ns.tasks) > 0 {
			ns.gaps = append(ns.gaps, bestStart-ns.free)
		}
		ns.tasks = append(ns.tasks, sim.Task{Graph: j.Graph, Images: j.Images})
		ns.free = end
		ns.jobs++
		t.completed++
		t.turnaround += end - j.orig
		if cfg.Obs != nil {
			cfg.Obs.Tracer.Complete("job", j.Graph.Name, jobTrackBase+best, bestStart, dry.Time,
				map[string]any{"node": best, "images": j.Images,
					"queued_ms": float64((bestStart - j.orig).Milliseconds())})
		}
	}
	return stuck
}
