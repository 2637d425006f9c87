// Command dwserve runs the DimmWitted training and serving daemon: a
// JSON HTTP API that schedules training jobs onto a NUMA-sized worker
// pool, caches optimizer plans, and serves batched predictions from
// trained models.
//
//	dwserve                                 # listen on :8080, local2
//	dwserve -addr :9000 -machine local8     # 8 sockets, 8 job slots
//	dwserve -slots 4 -queue 1024
//	dwserve -store /var/lib/dimmwitted      # durable models + crash-resume
//	dwserve -store ./state -checkpoint-every 1
//	dwserve -debug-addr localhost:6060      # pprof on a separate port
//
// Per-route latency percentiles appear under "latency" in /v1/stats,
// and the predict route's read/decode/score/encode split under
// "predict_stages".
//
// The optimizer is self-tuning by default: every finished epoch feeds
// its wall clock back into plan choice, and once a plan has enough
// observations (-feedback-min-obs) the measured cost overrides the
// static estimate, with an occasional exploration of the runner-up
// plan (-feedback-epsilon). Job status reports "plan_source" plus
// predicted vs observed seconds-per-epoch; learned costs persist under
// -store and survive restarts. -no-feedback restores purely static
// planning:
//
//	dwserve -feedback-min-obs 5 -feedback-epsilon 0.1
//	dwserve -no-feedback
//
// With -store, trained models persist across restarts (served lazily
// on first use), running jobs checkpoint their full resume state every
// -checkpoint-every epochs, and interrupted jobs revive via
//
//	curl -s -X POST localhost:8080/v1/jobs/job-1/resume
//	curl -s localhost:8080/v1/train -d '{"warm_start":"job-1","max_epochs":100}'
//
// Example session (the "workload" knob selects GLM training — the
// default — Gibbs sampling over a registered factor graph, or neural-
// network training over a registered image corpus):
//
//	curl -s localhost:8080/v1/train -d '{"model":"svm","dataset":"reuters","target_loss":0.3}'
//	curl -s localhost:8080/v1/train -d '{"workload":"gibbs","dataset":"paleo","executor":"parallel"}'
//	curl -s localhost:8080/v1/train -d '{"workload":"nn","dataset":"mnist","max_epochs":20}'
//	curl -s localhost:8080/v1/jobs/job-1
//	curl -s localhost:8080/v1/predict -d '{"model":"job-1","examples":[{"indices":[3,17],"values":[1,0.5]}]}'
//	curl -s localhost:8080/v1/stats
//
// Observability: submit a job with "trace": true and read its phase
// breakdown at /v1/jobs/{id}/trace (add ?format=chrome for a
// chrome://tracing export); /metrics serves the Prometheus text
// exposition; -debug-addr serves net/http/pprof off the public port:
//
//	curl -s localhost:8080/v1/train -d '{"workload":"gibbs","dataset":"cycle5","executor":"parallel","trace":true}'
//	curl -s localhost:8080/v1/jobs/job-1/trace | jq .summary
//	curl -s localhost:8080/metrics | grep engine_phase
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//
// Cluster mode: -peer-of registers this server with a dwcoord
// coordinator at startup, which then ships it dataset shards and
// drives PerCluster training rounds against it; -advertise is the
// address the coordinator should dial back (defaults to -addr):
//
//	dwserve -addr :8081 -peer-of http://coord:8090 -advertise host1:8081
//
// Hardening: request bodies are capped at -max-body-bytes (413 past
// the limit), the listeners carry header/idle timeouts, and SIGINT/
// SIGTERM drain gracefully — in-flight requests finish, running jobs
// checkpoint to -store, and feedback flushes — so a restarted server
// resumes its jobs with POST /v1/jobs/{id}/resume.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dimmwitted/internal/factor"
	"dimmwitted/internal/nn"
	"dimmwitted/internal/numa"
	"dimmwitted/internal/serve"
	"dimmwitted/internal/tune"
)

// registerWithCoordinator announces this server to a dwcoord
// coordinator, retrying while the coordinator comes up.
func registerWithCoordinator(coord, advertise string) error {
	if !strings.Contains(coord, "://") {
		coord = "http://" + coord
	}
	body, _ := json.Marshal(map[string]string{"addr": advertise})
	client := &http.Client{Timeout: 10 * time.Second}
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 500 * time.Millisecond)
		}
		resp, err := client.Post(strings.TrimRight(coord, "/")+"/v1/cluster/join",
			"application/json", bytes.NewReader(body))
		if err != nil {
			lastErr = err
			continue
		}
		resp.Body.Close()
		if resp.StatusCode/100 == 2 {
			return nil
		}
		lastErr = fmt.Errorf("coordinator answered %s", resp.Status)
	}
	return lastErr
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	machine := flag.String("machine", "local2", "simulated machine (local2, local4, local8, ec2.1, ec2.2)")
	slots := flag.Int("slots", 0, "concurrent training jobs (0 = one per NUMA node)")
	queue := flag.Int("queue", 0, "job queue depth (0 = 256)")
	store := flag.String("store", "", "durable state directory: persists trained models and job checkpoints (empty = memory only)")
	ckptEvery := flag.Int("checkpoint-every", 5, "checkpoint running jobs every N epochs (needs -store; 0 = never)")
	debugAddr := flag.String("debug-addr", "", "separate listen address for net/http/pprof (e.g. localhost:6060; empty = no profiling endpoint)")
	noFeedback := flag.Bool("no-feedback", false, "disable the self-tuning optimizer: plans come from the static cost model alone")
	feedbackMinObs := flag.Int("feedback-min-obs", 0, "observed epochs before a measured cost overrides the static plan choice (0 = 3)")
	feedbackEpsilon := flag.Float64("feedback-epsilon", 0, "probability of exploring the runner-up plan instead of the winner (0 = 0.05; negative disables exploration)")
	maxBody := flag.Int64("max-body-bytes", 0, "request body cap in bytes; oversized requests answer 413 (0 = 64 MiB, negative = unlimited)")
	peerOf := flag.String("peer-of", "", "coordinator URL to join as a cluster peer (e.g. http://coord:8090)")
	advertise := flag.String("advertise", "", "address the coordinator dials back for this peer (default: -addr)")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "how long SIGTERM waits for in-flight requests before forcing the close")
	flag.Parse()

	top, err := numa.ByName(*machine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	opts := serve.Options{
		Machine:         top,
		Slots:           *slots,
		QueueDepth:      *queue,
		DisableFeedback: *noFeedback,
		MaxBodyBytes:    *maxBody,
	}
	if !*noFeedback {
		opts.Feedback = tune.NewStore(tune.Options{
			MinObservations: *feedbackMinObs,
			Epsilon:         *feedbackEpsilon,
		})
	}
	if *store != "" {
		jobs, models, tuner, err := serve.OpenStores(*store)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opts.Checkpoints = jobs
		opts.Models = models
		opts.CheckpointEvery = *ckptEvery
		if opts.Feedback != nil {
			// Learned plan costs survive restarts alongside the models
			// they were measured for.
			if err := opts.Feedback.Persist(tuner); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
	}

	srv := serve.NewServer(opts)

	// Shutdown order matters: stop accepting requests first, then close
	// the server (which cancels running jobs, checkpoints them to
	// -store, and flushes optimizer feedback). SIGINT/SIGTERM trigger
	// it; a second signal kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Both listeners carry header/idle timeouts so an idle or trickling
	// client cannot pin a connection goroutine forever. No blanket
	// ReadTimeout: training submissions are small, but replica pushes
	// and shard appends are bounded by -max-body-bytes instead.
	var debugSrv *http.Server
	if *debugAddr != "" {
		// Profiling lives on its own listener so /debug/pprof never
		// shares the public API port; bind it to loopback in production.
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           serve.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			log.Printf("dwserve: pprof on http://%s/debug/pprof/", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Fatal(err)
			}
		}()
	}

	if *peerOf != "" {
		peerAddr := *advertise
		if peerAddr == "" {
			peerAddr = *addr
		}
		go func() {
			if err := registerWithCoordinator(*peerOf, peerAddr); err != nil {
				log.Printf("dwserve: could not join coordinator %s: %v", *peerOf, err)
				return
			}
			log.Printf("dwserve: joined cluster coordinator %s as %s", *peerOf, peerAddr)
		}()
	}

	durability := "memory only"
	if *store != "" {
		durability = fmt.Sprintf("store %s (checkpoint every %d epochs)", *store, *ckptEvery)
	}
	planning := "self-tuning optimizer"
	if *noFeedback {
		planning = "static planning"
	}
	log.Printf("dwserve: listening on %s, machine %s, %d training slots, %s, %s, datasets %v, graphs %v, nn datasets %v",
		*addr, top.Name, srv.Scheduler().Slots(), durability, planning, srv.Scheduler().Catalog().Datasets(), factor.BuiltinNames(), nn.BuiltinNames())

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		srv.Close()
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C force-kills
		log.Printf("dwserve: signal received, draining for up to %v", *shutdownGrace)
		sctx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		if err := httpSrv.Shutdown(sctx); err != nil {
			log.Printf("dwserve: forcing listener close: %v", err)
			_ = httpSrv.Close()
		}
		cancel()
		if debugSrv != nil {
			_ = debugSrv.Close()
		}
		// Checkpoint running jobs and flush learned costs before exit.
		srv.Close()
		log.Printf("dwserve: shutdown complete")
	}
}
