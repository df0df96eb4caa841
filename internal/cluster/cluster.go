// Package cluster models the evaluation testbeds: servers of GPUs joined by
// an intra-node fabric (PCIe or NVLink) and an inter-node InfiniBand
// network, the Megatron-style placement of a PP×DP×CP mesh onto them, and
// the collective cost models (ring all-reduce / reduce-scatter /
// all-gather, point-to-point) the simulator charges.
package cluster

import (
	"fmt"

	"mepipe/internal/config"
	"mepipe/internal/errs"
	"mepipe/internal/hw"
)

// Cluster is one homogeneous GPU cluster.
type Cluster struct {
	GPU           hw.GPU
	GPUsPerServer int
	Servers       int
	Intra         hw.Link // GPU-to-GPU within a server
	Inter         hw.Link // server-to-server (per NIC)
	Eff           hw.EffCurve
}

// RTX4090Cluster returns the paper's main testbed (§7.1): `servers` hosts,
// each with 8 RTX 4090 GPUs on PCIe 4.0, joined by 100 Gb/s InfiniBand.
func RTX4090Cluster(servers int) Cluster {
	return Cluster{
		GPU: hw.RTX4090(), GPUsPerServer: 8, Servers: servers,
		Intra: hw.PCIe4(), Inter: hw.IB100(), Eff: hw.DefaultEff(),
	}
}

// A100Cluster returns the cost-comparison testbed (§7.6): 8× A100 80 GB per
// server on NVLink, 800 Gb/s InfiniBand between servers.
func A100Cluster(servers int) Cluster {
	return Cluster{
		GPU: hw.A100(), GPUsPerServer: 8, Servers: servers,
		Intra: hw.NVLink3(), Inter: hw.IB800(), Eff: hw.DefaultEff(),
	}
}

// GPUs returns the total device count.
func (c Cluster) GPUs() int { return c.GPUsPerServer * c.Servers }

// ServerPrice returns the price of the whole cluster in USD.
func (c Cluster) Price() float64 { return float64(c.Servers) * c.GPU.ServerPriceUSD }

// Placement follows Megatron-LM's rank order (pipeline outermost): pipeline
// stage k owns the contiguous GPU block [k·G/pp, (k+1)·G/pp); the DP×CP
// replicas of a stage live inside that block. With pp equal to or above the
// server count, consecutive stages may share a server; otherwise each
// stage's block spans full servers and pipeline hops cross InfiniBand.

// Mesh validates that a parallel strategy fits the cluster and returns
// placement-derived quantities.
type Mesh struct {
	C   Cluster
	Par config.Parallel
}

// NewMesh checks the strategy against the cluster size.
func NewMesh(c Cluster, par config.Parallel) (Mesh, error) {
	if err := par.Validate(); err != nil {
		return Mesh{}, err
	}
	if par.Devices() != c.GPUs() {
		return Mesh{}, fmt.Errorf("cluster: strategy %v needs %d GPUs, cluster has %d: %w", par, par.Devices(), c.GPUs(), errs.ErrIncompatible)
	}
	return Mesh{C: c, Par: par}, nil
}

// gpusPerStage returns the block size owned by one pipeline stage.
func (m *Mesh) gpusPerStage() int { return m.Par.DP * m.Par.CP * m.Par.TPSize() }

// server returns the server index of a global GPU rank.
func (m *Mesh) server(rank int) int { return rank / m.C.GPUsPerServer }

// StageLink returns the link used by the pipeline hop from stage k to k+1
// (wrapping hops, used by virtual pipelining, take the same path as
// stage p−1 → 0).
func (m *Mesh) StageLink(k int) hw.Link {
	per := m.gpusPerStage()
	p := m.Par.PP
	a := (k % p) * per
	b := ((k + 1) % p) * per
	if m.server(a) == m.server(b) {
		return m.C.Intra
	}
	return m.C.Inter
}

// CPGroupLink returns the link spanning a context-parallel group. CP ranks
// are contiguous inside a stage block, so the group stays intra-node
// whenever it fits in one server.
func (m *Mesh) CPGroupLink() hw.Link {
	if m.Par.CP <= m.C.GPUsPerServer && m.gpusPerStage() <= m.C.GPUsPerServer {
		return m.C.Intra
	}
	if m.Par.CP <= m.C.GPUsPerServer {
		return m.C.Intra
	}
	return m.C.Inter
}

// TPGroupLink returns the link spanning a tensor-parallel group. TP ranks
// are innermost (Megatron order), so the group is intra-node whenever it
// fits in one server.
func (m *Mesh) TPGroupLink() hw.Link {
	if m.Par.TPSize() <= m.C.GPUsPerServer {
		return m.C.Intra
	}
	return m.C.Inter
}

// DPGroupLink returns the slowest link inside a data-parallel group (which
// bounds ring collectives). The DP group of one stage spans the stage's
// block; if that block exceeds one server the ring crosses InfiniBand.
func (m *Mesh) DPGroupLink() hw.Link {
	if m.gpusPerStage() <= m.C.GPUsPerServer {
		return m.C.Intra
	}
	return m.C.Inter
}

// AllReduceTime returns the ring all-reduce time for n bytes over a group of
// g ranks on link l: 2·(g−1)/g · n / bw plus per-step latencies.
func AllReduceTime(l hw.Link, g int, n int64) float64 {
	if g <= 1 || n <= 0 {
		return 0
	}
	steps := 2 * (g - 1)
	volume := 2 * float64(g-1) / float64(g) * float64(n)
	return volume/l.BandwidthBytes + float64(steps)*l.Latency
}

// ReduceScatterTime returns the ring reduce-scatter time (half an
// all-reduce).
func ReduceScatterTime(l hw.Link, g int, n int64) float64 {
	if g <= 1 || n <= 0 {
		return 0
	}
	volume := float64(g-1) / float64(g) * float64(n)
	return volume/l.BandwidthBytes + float64(g-1)*l.Latency
}

// AllGatherTime returns the ring all-gather time (same volume as
// reduce-scatter).
func AllGatherTime(l hw.Link, g int, n int64) float64 {
	return ReduceScatterTime(l, g, n)
}

// P2PTime returns the point-to-point transfer time for n bytes.
func P2PTime(l hw.Link, n int64) float64 { return l.TransferTime(n) }
