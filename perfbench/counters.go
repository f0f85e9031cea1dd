package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"

	"poseidon"
	"poseidon/internal/pmem"
)

// snapshot holds the counters the program exports, read at one edge of
// the measured window.
type snapshot struct {
	m                   poseidon.Metrics
	mallocs, allocBytes uint64
	gcCPU, allCPU       float64 // seconds, from runtime/metrics
	gcCycles            uint64
}

// The runtime folds GC CPU time into these at the end of each cycle.
var gcSamples = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/gc/cycles/total:gc-cycles"}

func takeSnapshot(db *poseidon.DB) snapshot {
	s := snapshot{m: db.Metrics()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes = ms.Mallocs, ms.TotalAlloc
	samples := make([]metrics.Sample, len(gcSamples))
	for i, n := range gcSamples {
		samples[i].Name = n
	}
	metrics.Read(samples)
	s.gcCPU, s.allCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	s.gcCycles = samples[2].Value.Uint64()
	return s
}

// deltas is the change of every counter across the measured window.
type deltas struct {
	pmem                           pmem.StatsSnapshot
	aborts                         uint64
	chainSteps, chainWalks         float64
	lockWaitNs, lockContended      uint64
	shardCommits, crossShard       uint64
	compiles, cacheHits            uint64
	morselsCompiled, morselsInterp uint64
	switchovers, rows              uint64
	stmtHits, stmtMisses           uint64
	mallocs, allocBytes            uint64
	gcCPU, allCPU                  float64
	gcCycles                       uint64
	runS, pullS                    float64 // server handle time, seconds
	runs, pulls, admissionRejects  uint64
}

func (a snapshot) delta(b snapshot) deltas {
	var w deltas
	w.pmem = b.m.PMem.Sub(a.m.PMem)
	for reason, n := range b.m.Tx.Aborts {
		w.aborts += n - a.m.Tx.Aborts[reason]
	}
	w.chainSteps = b.m.Tx.ChainWalk.Sum - a.m.Tx.ChainWalk.Sum
	w.chainWalks = float64(b.m.Tx.ChainWalk.Count - a.m.Tx.ChainWalk.Count)
	for i := range b.m.Shards {
		w.lockWaitNs += b.m.Shards[i].LockWaitNs - a.m.Shards[i].LockWaitNs
		w.lockContended += b.m.Shards[i].LockContended - a.m.Shards[i].LockContended
		w.shardCommits += b.m.Shards[i].Commits - a.m.Shards[i].Commits
	}
	w.crossShard = b.m.CrossShardCommits - a.m.CrossShardCommits
	w.compiles = b.m.JIT.Compiles - a.m.JIT.Compiles
	w.cacheHits = b.m.JIT.CodeCacheMemHits + b.m.JIT.CodeCachePersistHits -
		a.m.JIT.CodeCacheMemHits - a.m.JIT.CodeCachePersistHits
	w.morselsCompiled = b.m.JIT.MorselsCompiled - a.m.JIT.MorselsCompiled
	w.morselsInterp = b.m.JIT.MorselsInterpreted - a.m.JIT.MorselsInterpreted
	w.switchovers = b.m.JIT.Switchovers - a.m.JIT.Switchovers
	w.rows = b.m.Query.Rows - a.m.Query.Rows
	w.stmtHits = b.m.StmtCache.Hits - a.m.StmtCache.Hits
	w.stmtMisses = b.m.StmtCache.Misses - a.m.StmtCache.Misses
	w.mallocs = b.mallocs - a.mallocs
	w.allocBytes = b.allocBytes - a.allocBytes
	w.gcCPU = b.gcCPU - a.gcCPU
	w.allCPU = b.allCPU - a.allCPU
	w.gcCycles = b.gcCycles - a.gcCycles
	if a.m.Server != nil && b.m.Server != nil {
		ra, rb := a.m.Server.MsgLatency["run"], b.m.Server.MsgLatency["run"]
		pa, pb := a.m.Server.MsgLatency["pull"], b.m.Server.MsgLatency["pull"]
		w.runS, w.runs = rb.Sum-ra.Sum, rb.Count-ra.Count
		w.pullS, w.pulls = pb.Sum-pa.Sum, pb.Count-pa.Count
		w.admissionRejects = b.m.Server.AdmissionRejects - a.m.Server.AdmissionRejects
	}
	return w
}

// deviceUs is the simulated device time the counts imply under the
// PMem profile, in microseconds: the busy-wait the device model adds,
// kept apart from CPU work.
func (w deltas) deviceUs() float64 {
	p := pmem.PMemProfile()
	d := w.pmem
	ns := float64(d.CacheMisses)*float64(p.ReadMiss) +
		float64(d.BlockWrites)*float64(p.WriteBlock) +
		float64(d.LineFlushes-min(d.LineFlushes, d.BlockWrites))*float64(p.FlushLine) +
		float64(d.Drains)*float64(p.Drain)
	return ns / 1e3
}

// layerMetrics adds the per-layer metrics of a traced run: means and
// percentiles of the benchmark's spans, and the per-op counter deltas
// across the window. ops is the successful ops of the whole window,
// iuOps the IU ops among them; lat holds their latencies.
func layerMetrics(r *result, w deltas, st spanStats, ops, iuOps, retries int, lat []int64) {
	fops := float64(ops)
	per := func(n uint64) float64 { return ratio(float64(n), fops) }
	opBase := fmt.Sprintf("/ %d ops", ops)
	mean := func(name spanName) (float64, string) {
		d := st.durs[name]
		return meanUs(d), fmt.Sprintf("mean of %d %s spans", len(d), spanNames[name])
	}
	add := func(metric string, name spanName) {
		v, base := mean(name)
		r.add(metric, v, "us", base)
	}

	// Session, statement and rows (poseidon facade).
	add("poseidon.query_open_us", spQuery)
	add("poseidon.collect_us", spCollect)
	r.add("poseidon.stmt_cache_hit_ratio", ratio(float64(w.stmtHits), float64(w.stmtHits+w.stmtMisses)), "ratio",
		fmt.Sprintf("%d hits / %d lookups", w.stmtHits, w.stmtHits+w.stmtMisses))

	// Go runtime, whole program.
	r.add("go.allocs_per_op", per(w.mallocs), "count", fmt.Sprintf("%d allocs %s", w.mallocs, opBase))
	r.add("go.alloc_bytes_per_op", per(w.allocBytes), "B", fmt.Sprintf("%d B %s", w.allocBytes, opBase))
	r.add("go.gc_cpu_fraction", ratio(w.gcCPU, w.allCPU), "ratio", fmt.Sprintf("%.3f GC CPU-s / %.3f CPU-s, %d GC cycles", w.gcCPU, w.allCPU, w.gcCycles))
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.add("go.peak_rss_mb", float64(ru.Maxrss)*1024/1e6, "MB", "getrusage maxrss, whole run")
	} else {
		r.add("go.peak_rss_mb", 0, "MB", "getrusage failed: "+err.Error())
	}

	// Query execution and the JIT.
	execD := slices.Concat(st.durs[spQuery], st.durs[spQueryTx], st.durs[spCollect])
	execN := len(st.durs[spQuery]) + len(st.durs[spQueryTx])
	var execSum float64
	for _, d := range execD {
		execSum += float64(d)
	}
	r.add("query.exec_us", ratio(execSum, float64(execN))/1e3, "us",
		fmt.Sprintf("Session.Query or QueryTx plus Rows.Collect, %d statements", execN))
	r.add("query.rows_per_op", per(w.rows), "count", fmt.Sprintf("%d rows %s", w.rows, opBase))
	r.add("jit.compiles", float64(w.compiles), "count", "in the window; 0 once warm")
	r.add("jit.cache_hit_ratio", ratio(float64(w.cacheHits), float64(w.cacheHits+w.compiles)), "ratio",
		fmt.Sprintf("%d code-cache hits / %d lookups", w.cacheHits, w.cacheHits+w.compiles))
	morsels := w.morselsCompiled + w.morselsInterp
	r.add("jit.compiled_morsel_ratio", ratio(float64(w.morselsCompiled), float64(morsels)), "ratio",
		fmt.Sprintf("%d compiled / %d morsels", w.morselsCompiled, morsels))
	r.add("jit.switchovers_per_op", per(w.switchovers), "count", fmt.Sprintf("%d switchovers %s", w.switchovers, opBase))

	// MVTO transactions and commit.
	add("core.begin_us", spBegin)
	commits := sortedCopy(st.durs[spCommit])
	cn := len(commits)
	r.add("core.commit_us.p50", float64(percentile(commits, 0.5))/1e3, "us", fmt.Sprintf("n=%d Tx.Commit spans", cn))
	p99Base := fmt.Sprintf("n=%d Tx.Commit spans, %d beyond", cn, beyond(cn, 0.99))
	if beyond(cn, 0.99) < 10 {
		p99Base += " (fewer than 10 beyond)"
	}
	r.add("core.commit_us.p99", float64(percentile(commits, 0.99))/1e3, "us", p99Base)
	// Write commits: every acknowledged IU op committed exactly once.
	writeOps := float64(iuOps)
	r.add("core.lock_wait_us_per_commit", ratio(float64(w.lockWaitNs)/1e3, writeOps), "us",
		fmt.Sprintf("%d ns commit-lock wait / %.0f write commits", w.lockWaitNs, writeOps))
	r.add("core.lock_contended_ratio", ratio(float64(w.lockContended), float64(w.shardCommits)), "ratio",
		fmt.Sprintf("%d contended / %d shard lock acquisitions", w.lockContended, w.shardCommits))
	r.add("core.conflict_retries_per_kop", 1e3*ratio(float64(retries), fops), "count",
		fmt.Sprintf("%d retries %s", retries, opBase))
	r.add("core.aborts_per_kop", 1e3*per(w.aborts), "count", fmt.Sprintf("%d aborts %s", w.aborts, opBase))
	r.add("core.cross_shard_ratio", ratio(float64(w.crossShard), writeOps), "ratio",
		fmt.Sprintf("%d cross-shard / %.0f write commits", w.crossShard, writeOps))
	r.add("core.chain_walk_mean", ratio(w.chainSteps, w.chainWalks), "count",
		fmt.Sprintf("%.0f versions / %.0f chain lookups", w.chainSteps, w.chainWalks))

	// PMem device.
	d := w.pmem
	r.add("pmem.reads_per_op", per(d.Reads), "count", fmt.Sprintf("%d reads %s", d.Reads, opBase))
	r.add("pmem.miss_ratio", ratio(float64(d.CacheMisses), float64(d.CacheMisses+d.CacheHits)), "ratio",
		fmt.Sprintf("%d misses / %d cache lookups", d.CacheMisses, d.CacheMisses+d.CacheHits))
	r.add("pmem.line_flushes_per_op", per(d.LineFlushes), "count", fmt.Sprintf("%d flushes %s", d.LineFlushes, opBase))
	r.add("pmem.block_writes_per_op", per(d.BlockWrites), "count", fmt.Sprintf("%d block writes %s", d.BlockWrites, opBase))
	r.add("pmem.drains_per_op", per(d.Drains), "count", fmt.Sprintf("%d drains %s", d.Drains, opBase))
	r.add("pmem.device_us_per_op", ratio(w.deviceUs(), fops), "us",
		fmt.Sprintf("%.0f us simulated device time %s", w.deviceUs(), opBase))

	// Client, wire and server.
	add("client.rtt_us.sr", spQueryText)
	add("client.rtt_us.iu", spExecText)
	r.add("server.run_us", 1e6*ratio(w.runS, float64(w.runs)), "us", fmt.Sprintf("mean of %d RUN", w.runs))
	r.add("server.pull_us", 1e6*ratio(w.pullS, float64(w.pulls)), "us", fmt.Sprintf("mean of %d PULL", w.pulls))
	overhead := 0.0
	if w.runs > 0 {
		var sum float64
		for _, l := range lat {
			sum += float64(l)
		}
		overhead = ratio(sum/1e3-1e6*(w.runS+w.pullS), fops)
	}
	r.add("wire.overhead_us", overhead, "us", fmt.Sprintf("(op latency - RUN - PULL handle time) %s", opBase))
	r.add("server.admission_rejects", float64(w.admissionRejects), "count", "QUEUE_FULL in the window")
}
