package metrics

// ClusterCounter indexes one per-peer cluster counter: a row of
// clusterTable and a slot of ClusterCounters and ClusterSnapshot.Counts.
type ClusterCounter int

// The per-peer cluster counters, in exposition order.
const (
	PeerRounds ClusterCounter = iota
	PeerEpochs
	PeerShardRows
	PeerShardBytes
	PeerReplicaPulls
	PeerReplicaPushes
	PeerReplicaBytes
	PeerFailovers
	PeerProxiedPredicts
	PeerProxyFallbacks
	numClusterCounters
)

// clusterTable is the one declaration of every per-peer counter:
// /v1/cluster/peers reports counters.<key> and /metrics
// dwcoord_peer_<key>_total{peer=...}.
var clusterTable = [numClusterCounters]CounterDesc{
	PeerRounds:          {"rounds", "Training rounds completed per peer."},
	PeerEpochs:          {"epochs", "Shard epochs trained per peer."},
	PeerShardRows:       {"shard_rows", "Shard rows shipped to each peer."},
	PeerShardBytes:      {"shard_bytes", "Shard bytes shipped to each peer."},
	PeerReplicaPulls:    {"replica_pulls", "Model replicas pulled from each peer."},
	PeerReplicaPushes:   {"replica_pushes", "Model replicas pushed to each peer."},
	PeerReplicaBytes:    {"replica_bytes", "Snapshot bytes moved to/from each peer."},
	PeerFailovers:       {"failovers", "Shards absorbed from dead peers."},
	PeerProxiedPredicts: {"proxied_predicts", "Predictions proxied to each peer."},
	PeerProxyFallbacks:  {"proxy_fallbacks", "Predictions answered as a ring successor."},
}

// ClusterTable returns the per-peer counters' declarations, indexed by
// ClusterCounter. Callers must not modify it.
func ClusterTable() []CounterDesc { return clusterTable[:] }

// ClusterCounters are the coordinator's monotonically increasing
// counters for one peer: training rounds driven, shard rows and model
// bytes moved over the wire, and failovers absorbed. The coordinator
// keeps one set per peer so /metrics can break the cluster down by
// node. All methods are safe for concurrent use; the zero value is
// ready. Padding as in ServeCounters — the transfer counters are
// bumped from concurrent per-peer round goroutines.
type ClusterCounters struct {
	counts [numClusterCounters]counter
}

// Inc records one event of counter k.
func (c *ClusterCounters) Inc(k ClusterCounter) { c.counts[k].Add(1) }

// Round records one completed training round that advanced the peer's
// engine by epochs epochs.
func (c *ClusterCounters) Round(epochs int) {
	c.counts[PeerRounds].Add(1)
	c.counts[PeerEpochs].Add(int64(epochs))
}

// ShardPush records rows rows (bytes encoded bytes) shipped to the
// peer over the append API.
func (c *ClusterCounters) ShardPush(rows, bytes int) {
	c.counts[PeerShardRows].Add(int64(rows))
	c.counts[PeerShardBytes].Add(int64(bytes))
}

// ReplicaPull records one model snapshot of n bytes fetched from the
// peer.
func (c *ClusterCounters) ReplicaPull(n int) {
	c.counts[PeerReplicaPulls].Add(1)
	c.counts[PeerReplicaBytes].Add(int64(n))
}

// ReplicaPush records one model snapshot of n bytes installed on the
// peer.
func (c *ClusterCounters) ReplicaPush(n int) {
	c.counts[PeerReplicaPushes].Add(1)
	c.counts[PeerReplicaBytes].Add(int64(n))
}

// ClusterSnapshot is a point-in-time copy of one peer's counters. It
// encodes to JSON as one object keyed by clusterTable.
type ClusterSnapshot struct {
	// Counts holds each counter's value, indexed by ClusterCounter.
	Counts [numClusterCounters]int64
}

// Snapshot returns a consistent-enough copy for reporting: each field
// is read atomically, the set is not a single linearization point.
func (c *ClusterCounters) Snapshot() ClusterSnapshot {
	var s ClusterSnapshot
	loadCounts(c.counts[:], s.Counts[:])
	return s
}

// MarshalJSON implements json.Marshaler.
func (s ClusterSnapshot) MarshalJSON() ([]byte, error) {
	return append(appendCounts([]byte{'{'}, clusterTable[:], s.Counts[:]), '}'), nil
}
