package metrics

import (
	"encoding/json"
	"testing"
)

func TestClusterCountersSnapshot(t *testing.T) {
	var c ClusterCounters
	c.Round(5)
	c.Round(3)
	c.ShardPush(100, 4096)
	c.ReplicaPull(256)
	c.ReplicaPush(256)
	c.Inc(PeerFailovers)
	c.Inc(PeerProxiedPredicts)
	c.Inc(PeerProxiedPredicts)
	c.Inc(PeerProxyFallbacks)

	s := c.Snapshot()
	want := ClusterSnapshot{Counts: [numClusterCounters]int64{
		PeerRounds:          2,
		PeerEpochs:          8,
		PeerShardRows:       100,
		PeerShardBytes:      4096,
		PeerReplicaPulls:    1,
		PeerReplicaPushes:   1,
		PeerReplicaBytes:    512,
		PeerFailovers:       1,
		PeerProxiedPredicts: 2,
		PeerProxyFallbacks:  1,
	}}
	if s != want {
		t.Fatalf("snapshot = %+v, want %+v", s, want)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	const wantJSON = `{"rounds":2,"epochs":8,"shard_rows":100,"shard_bytes":4096,"replica_pulls":1,"replica_pushes":1,"replica_bytes":512,"failovers":1,"proxied_predicts":2,"proxy_fallbacks":1}`
	if string(b) != wantJSON {
		t.Fatalf("JSON %s, want %s", b, wantJSON)
	}
}

// TestCounterTables: every row of both tables declares a key and a
// help text, and no key repeats within a table.
func TestCounterTables(t *testing.T) {
	for name, table := range map[string][]CounterDesc{"serve": ServeTable(), "cluster": ClusterTable()} {
		seen := map[string]bool{}
		for i, d := range table {
			if d.Key == "" || d.Help == "" || seen[d.Key] {
				t.Errorf("%s row %d: %+v is blank or repeats a key", name, i, d)
			}
			seen[d.Key] = true
		}
	}
}

// TestServeSnapshotJSON: the snapshot encodes as one flat object —
// every table key plus the derived rate — and decodes back unchanged.
func TestServeSnapshotJSON(t *testing.T) {
	var c ServeCounters
	c.Inc(TrainRequests)
	c.PredictRequest(7)
	c.GibbsEpoch(2, 1000, 1e6) // 1000 samples in 1 ms
	c.AppendRequest(3)
	s := c.Snapshot()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m) != int(numServeCounters)+1 || m["predictions"] != 7 || m["rows_appended"] != 3 || m["gibbs_samples_per_sec"] != 1e6 {
		t.Fatalf("JSON %s", b)
	}
	var back ServeSnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("round trip %+v, want %+v", back, s)
	}
}

func TestPromLabelEscapes(t *testing.T) {
	if got, want := PromLabel("route", "a\\b\"c\nd"), `route="a\\b\"c\nd"`; got != want {
		t.Fatalf("PromLabel = %s, want %s", got, want)
	}
}
