package linerate

import (
	"fmt"
	"sync"
)

// checksumMix folds one output word into a flow's running checksum. The
// +1 keeps zero outputs from being absorbed, the odd multiplier makes the
// fold order-sensitive within a flow — so a sharded replay that reorders
// packets *within* a flow cannot checksum clean.
func checksumMix(c, v uint64) uint64 {
	return c*0x9E3779B97F4A7C15 + (v + 1)
}

// ReplayResult summarizes one trace replay.
type ReplayResult struct {
	// Packets is the number of transactions executed.
	Packets int
	// Checksum XORs the per-flow checksums (each order-sensitive within
	// its flow, the XOR order-free across flows), so a single-worker and a
	// sharded replay of the same trace must agree exactly.
	Checksum uint64
	// FlowStates[flow] is each flow's final state vector (NumStates words).
	FlowStates [][]uint64
}

// Replay runs a flattened trace through the engine on one goroutine.
// flows[i] names packet i's flow (0 <= flows[i] < nFlows); fields is the
// row-major packet matrix from workload.Flatten and is not modified.
func Replay(e *Engine, flows []int, fields []uint64, nFlows int) ReplayResult {
	return replayShard(e, flows, fields, nFlows, 0, 1)
}

// ReplaySharded partitions flows across workers (flow mod workers) and
// replays the trace concurrently. Packets of one flow all land on one
// worker and are processed in trace order, preserving the per-flow state
// sequencing the transactional semantics require; flows on different
// workers interleave freely, which is unobservable because flows share no
// state. The result is identical to Replay's.
func ReplaySharded(e *Engine, flows []int, fields []uint64, nFlows, workers int) ReplayResult {
	if workers < 1 {
		workers = 1
	}
	if workers > nFlows && nFlows > 0 {
		workers = nFlows
	}
	if workers == 1 {
		return Replay(e, flows, fields, nFlows)
	}
	results := make([]ReplayResult, workers)
	var wg sync.WaitGroup
	for shard := 0; shard < workers; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			results[shard] = replayShard(e, flows, fields, nFlows, shard, workers)
		}(shard)
	}
	wg.Wait()

	merged := ReplayResult{FlowStates: make([][]uint64, nFlows)}
	for shard, r := range results {
		merged.Packets += r.Packets
		merged.Checksum ^= r.Checksum
		for flow := shard; flow < nFlows; flow += workers {
			merged.FlowStates[flow] = r.FlowStates[flow]
		}
	}
	return merged
}

// replayShard processes the packets whose flow lands on this shard. It
// scans the whole trace rather than pre-splitting it: the scan is cheap
// relative to transaction execution and keeps the memory layout shared.
func replayShard(e *Engine, flows []int, fields []uint64, nFlows, shard, workers int) ReplayResult {
	nf := len(e.fields)
	nst := len(e.states)
	if nf > 0 && len(fields) < len(flows)*nf {
		panic(fmt.Sprintf("linerate: trace of %d packets needs %d field values, got %d",
			len(flows), len(flows)*nf, len(fields)))
	}
	buf := e.NewBuf()
	// One backing array for every flow's state keeps the allocation count
	// independent of how many flows the shard sees.
	backing := make([]uint64, nFlows*nst)
	states := make([][]uint64, nFlows)
	sums := make([]uint64, nFlows)
	pkt := make([]uint64, nf)
	res := ReplayResult{FlowStates: states}
	for i, flow := range flows {
		// A single worker owns every flow; skipping the division shows
		// at tens of nanoseconds per packet.
		if workers > 1 && flow%workers != shard {
			continue
		}
		st := states[flow]
		if st == nil {
			st = backing[flow*nst : (flow+1)*nst : (flow+1)*nst]
			states[flow] = st
		}
		// The trace row is the input, pkt the output: the trace stays
		// unmodified without a per-packet copy.
		e.run(buf, fields[i*nf:(i+1)*nf], pkt, st)
		c := sums[flow]
		for _, v := range pkt {
			c = checksumMix(c, v)
		}
		sums[flow] = c
		res.Packets++
	}
	for flow := shard; flow < nFlows; flow += workers {
		c := sums[flow]
		for _, v := range states[flow] {
			c = checksumMix(c, v)
		}
		res.Checksum ^= c
	}
	return res
}
