package main

// The system under test, booted exactly one way. Every number the benchmark
// reports is against this configuration; later changes must keep these calls
// compiling (README.md, "System under test").

import (
	"fmt"
	"os"
	"time"

	"confide/internal/consensus"
	"confide/internal/core"
	"confide/internal/gateway"
	"confide/internal/kms"
	"confide/internal/node"
	"confide/internal/p2p"
)

const (
	sutNodes         = 4
	sutPipelineDepth = 8
	// The paper's LAN, as Figure 11 injects it. With instant delivery,
	// latency would be processor time only.
	sutLinkLatency     = 200 * time.Microsecond
	sutLinkBytesPerSec = 1 << 30
	sutSyncInterval    = 40 * time.Millisecond
)

var sutConsensus = consensus.Options{
	ViewTimeout:        2 * time.Second,
	RetransmitInterval: 20 * time.Millisecond,
	RetransmitMax:      200 * time.Millisecond,
	HeartbeatInterval:  50 * time.Millisecond,
}

// sutConfig is the environment stamp's record of the configuration above.
func sutConfig() map[string]any {
	return map[string]any{
		"nodes":                  sutNodes,
		"zones":                  1,
		"link_latency_us":        sutLinkLatency.Microseconds(),
		"link_bytes_per_sec":     sutLinkBytesPerSec,
		"pipeline_depth":         sutPipelineDepth,
		"engine_opts":            "core.AllOptimizations()",
		"block_max_txs":          "default (64)",
		"exec_workers":           "default",
		"sync_interval_ms":       sutSyncInterval.Milliseconds(),
		"view_timeout_ms":        sutConsensus.ViewTimeout.Milliseconds(),
		"retransmit_interval_ms": sutConsensus.RetransmitInterval.Milliseconds(),
		"retransmit_max_ms":      sutConsensus.RetransmitMax.Milliseconds(),
		"heartbeat_interval_ms":  sutConsensus.HeartbeatInterval.Milliseconds(),
		"driver":                 "cluster.StartDriver(0) (5 ms default tick)",
		"gateway":                "gateway.Serve defaults, one per node, loopback TCP",
	}
}

func sutClusterOptions(storeDir string, secrets *kms.Secrets) node.ClusterOptions {
	return node.ClusterOptions{
		Nodes: sutNodes,
		Network: p2p.Config{
			IntraZone: p2p.LinkProfile{Latency: sutLinkLatency, BytesPerSec: sutLinkBytesPerSec},
		},
		Node: node.Config{
			PipelineDepth: sutPipelineDepth,
			EngineOpts:    core.AllOptimizations(),
			SyncInterval:  sutSyncInterval,
			Consensus:     sutConsensus,
		},
		StoreDir: storeDir,
		Secrets:  secrets,
	}
}

// sut is one running cluster with a gateway in front of every node.
type sut struct {
	cluster    *node.Cluster
	gateways   []*gateway.Gateway
	urls       []string
	stopDriver func()
	storeDir   string
}

// bootSUT starts the cluster, the block driver and the gateways. With durable
// set, every node runs on an LSM store in a fresh directory under tmpRoot,
// removed again by close.
func bootSUT(durable bool, tmpRoot string) (*sut, error) {
	s := &sut{}
	if durable {
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(tmpRoot, "store-")
		if err != nil {
			return nil, err
		}
		s.storeDir = dir
	}
	cluster, err := node.NewCluster(sutClusterOptions(s.storeDir, nil))
	if err != nil {
		s.close()
		return nil, fmt.Errorf("boot cluster: %w", err)
	}
	s.cluster = cluster
	s.stopDriver = cluster.StartDriver(0)
	for _, n := range cluster.Nodes {
		gw, err := gateway.Serve(gateway.Config{Node: n})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("serve gateway: %w", err)
		}
		s.gateways = append(s.gateways, gw)
		s.urls = append(s.urls, gw.URL())
	}
	return s, nil
}

func (s *sut) close() {
	for _, gw := range s.gateways {
		_ = gw.Close() // drain errors at teardown change nothing reported
	}
	if s.stopDriver != nil {
		s.stopDriver()
	}
	if s.cluster != nil {
		s.cluster.Close()
	}
	if s.storeDir != "" {
		os.RemoveAll(s.storeDir)
	}
}
