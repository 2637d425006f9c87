// Command dwcoord runs the DimmWitted cluster coordinator: PerCluster
// model replication across a pool of dwserve peers. It shards a named
// dataset over the peers row-by-row, drives epoch-synchronous training
// rounds (each peer trains its shard under a forced FixedOrder plan,
// ships its model replica back as a CRC-checked snapshot, and the
// coordinator combines them with the workload's own sync semantics —
// PerNode model averaging, one level up), and serves the finished
// models through a consistent-hash ring over the peers.
//
//	dwcoord -peers localhost:8081,localhost:8082,localhost:8083
//	dwcoord -addr :8090 -cluster prod -epochs-per-round 2
//
// Peers can also join later — either dial the coordinator themselves
// (dwserve -peer-of http://coord:8090) or be registered by hand:
//
//	curl -s localhost:8090/v1/cluster/join -d '{"addr":"host4:8081"}'
//	curl -s localhost:8090/v1/cluster/peers
//
// Training and serving mirror the dwserve API, at cluster scope:
//
//	curl -s localhost:8090/v1/train -d '{"model":"svm","dataset":"reuters","max_epochs":10,"fixed_order":true}'
//	curl -s localhost:8090/v1/jobs/cl-1
//	curl -s localhost:8090/v1/predict -d '{"model":"cl-1","examples":[{"indices":[3,17],"values":[1,0.5]}]}'
//	curl -s localhost:8090/metrics
//
// A peer that dies mid-run is failed over automatically: its shard is
// re-pushed to a surviving peer and training resumes there from the
// last combined checkpoint, while serving falls through to the dead
// peer's ring successors.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dimmwitted/internal/cluster"
	"dimmwitted/internal/data"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	peers := flag.String("peers", "", "comma-separated dwserve peer addresses to join at startup")
	name := flag.String("cluster", "dw", "cluster name reported to peers")
	advertise := flag.String("advertise", "", "coordinator URL peers should report (default: -addr)")
	epochsPerRound := flag.Int("epochs-per-round", 1, "local epochs each peer trains between combines")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per peer on the serving ring (0 = 64)")
	replicate := flag.Int("replicate", 2, "ring nodes that receive each finished model")
	maxBody := flag.Int64("max-body-bytes", 0, "request body cap in bytes; oversized requests answer 413 (0 = 16 MiB, negative = unlimited)")
	peerTimeout := flag.Duration("peer-timeout", 30*time.Second, "per-request timeout against peers")
	roundTimeout := flag.Duration("round-timeout", 2*time.Minute, "timeout for one peer's training round")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "how long SIGTERM waits for in-flight requests before forcing the close")
	flag.Parse()

	adv := *advertise
	if adv == "" {
		adv = *addr
	}
	coord := cluster.NewCoordinator(cluster.Options{
		Name:            *name,
		Advertise:       adv,
		EpochsPerRound:  *epochsPerRound,
		RingVNodes:      *vnodes,
		ReplicateModels: *replicate,
		PeerTimeout:     *peerTimeout,
		RoundTimeout:    *roundTimeout,
		Logf:            log.Printf,
	})
	joined := 0
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			if _, err := coord.Join(p); err != nil {
				log.Printf("dwcoord: peer %s did not join: %v", p, err)
				continue
			}
			joined++
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           cluster.NewHandler(coord, *maxBody),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	log.Printf("dwcoord: cluster %q listening on %s, %d peers joined, datasets %v",
		*name, *addr, joined, data.BuiltinNames())
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("dwcoord: signal received, draining for up to %v", *shutdownGrace)
		sctx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		if err := httpSrv.Shutdown(sctx); err != nil {
			_ = httpSrv.Close()
		}
		cancel()
		log.Printf("dwcoord: shutdown complete")
	}
}
