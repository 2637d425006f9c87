// Package serve turns the batch DimmWitted engine into a long-running
// service: a concurrent training-job scheduler that plans every job
// with the feedback-aware cost-based optimizer, a model registry
// serving batched predictions from trained snapshots, and a stdlib
// net/http JSON API on top.
//
// The architecture mirrors the paper's separation of statistical and
// hardware efficiency one level up. Each training job is one engine —
// one point in the tradeoff space — and jobs are scheduled onto a
// worker pool sized from the simulated NUMA topology (one training
// slot per socket), so the service exercises many engines concurrently
// the way the engine exercises many cores. Like the paper's optimizer,
// planning is a cheap cost-model evaluation run once per job — well
// under one epoch's cost — against the feedback store's measured
// epochs, so a repeated workload is planned on the latest
// measurements. Trained models leave the engine as immutable
// core.Snapshot values and are served lock-free-read from the
// registry; prediction is the read path, training the write path.
// Every dataset name a request carries (generated GLM datasets, this
// server's streams, factor graphs, NN corpora) resolves through the
// scheduler's Catalog, which builds each name once and shares it; each
// server owns its catalog, so servers in one process never share a
// stream.
//
// The inference hot path is read-optimized separately from the
// training path: the registry keeps model ids in one copy-on-write
// map whose entries hold immutable, pre-resolved serving models
// (spec + flat weight slice + scorer, built once at publish time)
// published by atomic pointer swap, so Predict is lock-free; lazy
// loads from the durable store are single-flight per id. Per-route
// latency histograms (p50/p95/p99) and the predict stage split
// (decode/score/encode) surface in /v1/stats; cmd/dwload drives the
// whole path at a target request rate. See DESIGN.md "The serving
// path".
//
// The HTTP surface:
//
//	POST   /v1/train            submit a training job     -> {job_id}
//	                            ("warm_start" continues a stored model)
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job state and progress curve
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	POST   /v1/jobs/{id}/resume revive a terminal/crashed job from its
//	                            durable checkpoint        -> {job_id}
//	GET    /v1/models           list trained models
//	POST   /v1/predict          batched predictions from a model
//	GET    /v1/stats            serving counters, latency percentiles,
//	                            predict stages, queue and optimizer stats
//	GET    /v1/jobs/{id}/trace  span journal of a traced job (submit
//	                            with "trace": true); ?format=chrome
//	                            exports Chrome trace_event JSON
//	GET    /metrics             Prometheus text exposition: counters,
//	                            route latency histograms, engine phase
//	                            timers
//
// Peer-mode endpoints, driven by a cluster coordinator (cmd/dwcoord)
// to make this server one node of a PerCluster training run — models
// travel as CRC-validated snapshot-codec payloads, data through the
// ordinary append API:
//
//	POST   /v1/cluster/join          coordinator handshake -> machine,
//	                                 datasets, model count
//	GET    /v1/cluster/replica/{id}  pull a model replica (encoded
//	                                 snapshot)
//	POST   /v1/cluster/replica/{id}  install a snapshot: round seeds
//	                                 for warm_start, final ring models
//	GET    /v1/datasets/{id}/rows    export a row range in the append
//	                                 API's encoding (?start=&count=)
//
// Every request body is capped at Options.MaxBodyBytes (64 MiB by
// default); oversized requests answer 413 with the JSON error
// envelope instead of buffering without bound.
//
// Profiling (net/http/pprof) is deliberately not on this mux: dwserve
// serves DebugHandler on a separate -debug-addr listener so profiles
// never ride the public port.
//
// With Options.Checkpoints/Models (dwserve -store), the scheduler
// checkpoints running jobs between epochs and the registry persists
// across restarts — see DESIGN.md "Durability".
package serve
