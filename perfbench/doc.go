// Command perfbench is the repository's end-to-end benchmark: one
// seeded command that builds the real usimd (and usim-index where an
// index is served), drives it over loopback, checks every answer, and
// prints what a user waits for; a traced run replays the same seeded
// requests at each layer boundary and prints where the time goes.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload source-sweep --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload hot-score --seed 1 --seconds 10 --trace 1
//	bash perfbench/run.sh compare -parent DIR -change DIR
//
// run.sh builds everything into .bench_build (Go build cache included)
// and execs the binary. The last line of a run is one JSON object with
// correct, attempted, failed and metrics; the lines above it print every
// metric with its unit and sample count, the error ratio, and the
// generator's lateness. A wrong answer or an invalid run exits 1.
//
// # Inputs
//
// The seed fixes everything: the R-MAT graph (2048 vertices, arc
// probabilities uniform in [0.2, 0.9]), the request streams, the
// open-loop arrival times and the engine seed. usimd runs with N=1000,
// c=0.6, n=5, l=1 and -workers 2; the client uses at most two request
// connections (plus one for updates and one for the subscription stream
// where a workload has them), matching the 2-core box the workloads were
// sized on.
//
// # Workloads
//
// source-sweep — closed loop, 2 clients. Graph: a=0.57, 6 arcs per
// vertex; usimd -warm -index -rowcache 512. Each request is /v1/source
// with a distinct uniform source and 64 uniform candidates, rotating
// sampling_v2, srsp, twophase, sampling, indexed and eps-bearing
// sampling_v2. Measured in process at Parallelism 2: 18-26, 92-100,
// 66-93, 63-95 and 3.5 ms per query; filters build in 0.28 s, the index
// in 2.7-3.7 s. Loads the kernels (mc, speedup, walkpr, index probe);
// the HTTP pipeline is a few percent. Uniform sources overflow the row
// cache, so the cache misses. About 25 reads/s. Full-vector source and
// top-k-of-u are left out: each costs seconds per query here.
//
// hot-score — open loop, 1000 reads/s. Graph: a=0.45, 3 arcs per vertex
// (at a=0.57 a cold exact row costs 0.45 s on average and up to 6 s; at
// a=0.45 about 6 ms). Requests: /v1/score baseline and, one in four,
// /v1/batch of 8 pairs, Zipf-drawn over a 32-vertex hot set whose rows
// are warmed before timing. The kernel costs ~14 us against ~300 us for
// one loopback query: decode, admission, coalescing, encode, the socket
// and GC dominate, and the kernels are bypassed.
//
// read-write — open loop, 130 reads/s and 14 update batches/s, on the
// source-sweep graph family with the index served. Reads: /v1/score
// sampling_v2 and srsp and /v1/source indexed with 64 candidates.
// Writes: /v1/admin/update batches of reweights and an insert or a
// delete, every fourth batch also an insert and delete that net out; one
// /v1/subscribe score stream watches a pair every batch reaches. The
// only workload whose reads run beside ugraph.Delta, the invalidation
// BFS, PatchFilters, index.Patch, the handle swap and internal/sub, so a
// read gain that costs writes, or the reverse, shows here. Updates
// touch arcs whose head reaches at most one other vertex within the
// walk horizon: a uniformly random arc's head reaches ~75% of the graph
// and its index patch recomputes ~1500 rows (1.6-2.7 s), too slow for
// the 100 updates update_p90_ms needs in one run.
//
// scatter — open loop, 400 reads/s, a coordinator over two nodes on the
// hot-score graph and hot set. Requests: pass-through /v1/score and
// /v1/source (relay) and /v1/batch of pairs over both shards (regroup
// and reassembly). The kernels are cheap, so the coordinator's tax
// shows; without it internal/cluster goes unmeasured.
//
// # End-to-end metrics (--trace 0)
//
// The bounded metrics, the ones BENCHMARK.json declares:
//
//	setup_s        median of 3 set-ups from nothing: index build where served,
//	               spawn, until every process answers /healthz with filters warm
//	read_qps       successful reads per second of window: the closed loop's
//	               throughput on source-sweep, the goodput at the nominal rate
//	               on the open loops
//	cpu_ms_per_op  CPU time of the serving processes over the window, per
//	               successful read (and update, on read-write)
//	update_cpu_ms  CPU time of the serving processes per update of the write
//	               probe, push recomputation included
//
// Printed with their sample counts but not bounded:
//
//	read_p50_ms, read_p90_ms      read latency from release; the p90 is the
//	                              median over slices of at least 100 reads
//	update_p50_ms, update_p90_ms  round trip of /v1/admin/update in the probe
//	                              (load_update_* inside read-write's window)
//	push_lag_p50_ms, _p90_ms      update send to arrival of the SSE event at
//	                              or past its generation, staleness_ms=0
//	rss_mb                        median summed VmRSS, sampled every 100 ms
//	error_ratio                   failed / attempted, 0 on correct code
//	gen.late_p99_ms               the open-loop generator's own lateness
//
// The box the benchmark was tuned on is a 2-vCPU VM whose host steals CPU
// in bursts: the same seed's read p50 moved 15% between back-to-back runs
// and over ten seeds the latency percentiles spread 0.12-0.76 (quartile
// distance over median), beyond the largest bound a metric may have,
// 0.25. CPU time per operation excludes the time a thread waits for a
// CPU, so it spread 0.07-0.09 and is the cost a change to any layer moves;
// latency is printed beside it. Memory is printed, not bounded: a node's
// resident set settles near 18 or near 37 MB depending on the GC heap
// goal, so it spread 0.67 between scatter runs.
//
// Percentiles are reported only with at least 10 samples beyond them. A
// read is timed from release: its due time, unless the generator woke
// later. Go's timers sleep in whole milliseconds of epoll wait, about one
// hot-score service time, so that lag is the generator's, not the
// system's; a run whose generator lag exceeds 50 ms at p99 is marked
// invalid, since the generator then released dozens of requests at once
// and shaped the load. The push lag is timed from the update's send
// because the server wakes subscribers before it writes the ack, so the
// event often arrives first.
//
// Every workload ends with a write probe after its window: 200 sequential
// updates, each sent once the previous one's push has arrived, on an
// otherwise idle system, continuing the workload's write stream. It gives
// every workload the update metrics without letting a write touch its
// reads. Every batch changes an in-arc of the subscribed pair's u, so
// each owes a push; the pair is the two local heads the fewest vertices
// reach, so a push recomputes about the same work on every seed's graph.
//
// Every read, push and update is checked: each answer must equal, byte
// for byte once the coalescing flag is dropped, the answer of an
// in-process server.Server built from the same source, graph, seed and
// index, with the run's acked updates replayed in generation order.
// Failed, refused (429/5xx), timed-out and wrong operations count in
// failed, and a wrong answer exits 1.
//
// # Per-layer metrics (--trace 1)
//
// The traced run loads the deployment for the window first, then replays
// the workload's first requests one at a time at each boundary —
// kernels, core.Engine, server.Server.ServeHTTP into a recorder, usimd
// over 127.0.0.1, and an in-process cluster.Coordinator over the two
// nodes — and subtracts: a layer's self time is its mean time minus the
// layer below's for the same requests. The kernels are replayed on one
// goroutine, so core.self_us subtracts them from the engine at
// Parallelism 1; every other layer runs as served, at Parallelism 2.
// Each replay of a cold source-sweep query is a fresh 30-40 ms
// computation, so there the server and http self times are within the
// noise of that difference and can read negative; on the warm workloads
// they are exact to a few microseconds. Spans (name, parent, request,
// start, end) go to .bench_build/run/traces/<workload>-<seed>.jsonl. A
// layer a workload never reaches reports 0. The run prints the split of
// one loopback read into kernel, core, server and http shares.
// trace.read_p50_ms is the traced run's loaded read p50; its distance
// from the untraced read p50 is the tracing overhead.
//
// Measured splits (seed 5-6, this box): source-sweep kernel 86%, core
// 5%, server+http 9% of 40 ms; hot-score kernel 0%, core 10%, server
// 17%, http 73% of 236 us; scatter adds cluster.self_us of ~280 us over
// the node's ~290 us; read-write is the only one with update-path spans
// (core.ApplyUpdates, index.Patch, speedup.PatchFilters).
//
//	per-layer metric                       should move (bounded; printed)       on
//	mc.v1_sample_us mc.v2_sample_us        read_qps cpu_ms_per_op; read_p90_ms  source-sweep, not hot-score
//	mc.v1_allocs
//	speedup.propagate_{us,allocs,bytes}    cpu_ms_per_op; read_p90_ms           source-sweep
//	speedup.patch_ms                       update_cpu_ms; update_p50_ms         read-write
//	walkpr.rows_cold_ms                    read_qps                             source-sweep (twophase misses)
//	index.probe_us index.build_s           setup_s; read_p50_ms                 source-sweep, read-write
//	index.patch_ms index.rows_patched      update_cpu_ms; update_p50/p90_ms     read-write
//	core.{score,source,batch,self}_us      read_qps cpu_ms_per_op               source-sweep
//	core.walks_per_query
//	core.apply_ms core.touched_sources     update_cpu_ms; read_p90_ms           read-write
//	core.rows_evicted
//	cache.row_hit_ratio cache.row_lookups  cpu_ms_per_op; read_p90_ms           hot-score (hits), source-sweep (misses)
//	cache.row_evictions
//	parallel.srsp_scaling (P1 / P2 time)   read_qps                             source-sweep
//	server.{handler,self}_us               cpu_ms_per_op; read_p50_ms           hot-score, not source-sweep
//	server.{allocs,bytes}_per_req
//	server.coalesce_hit_ratio
//	server.admission_rejected
//	http.loopback_us http.loopback_self_us cpu_ms_per_op; read_p50_ms           hot-score
//	cluster.{coord,self}_us                cpu_ms_per_op; read_p50_ms           scatter only
//	cluster.attempts_per_query
//	cluster.hedges cluster.failovers
//	sub.wakeups sub.pushes sub.coalesced   update_cpu_ms; push_lag_p50_ms       read-write
//	go.alloc_bytes_per_req                 cpu_ms_per_op; read_p90_ms, rss_mb   hot-score
//	go.gc_cycles_per_1k_req
//	gen.late_p99_ms trace.read_p50_ms      (validity of the run)                open-loop workloads
//
// # Comparing two commits
//
// Save each run's standard output to a file, one directory per commit,
// alternating which commit runs first, then run the compare mode. For
// every workload and end-to-end metric it prints each side's median and
// quartiles, the share of same-seed pairs the change won, and a verdict:
// improved (wins at least nine tenths of the pairs and the medians
// differ by more than the parent's quartile spread), worse (median worse
// by more than the BENCHMARK.json bound), unresolved (the parent's spread
// is wider than the bound and not every change run beats every parent
// run), or within bound.
package main
