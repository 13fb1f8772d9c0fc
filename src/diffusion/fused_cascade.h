// Bit-parallel fused Monte-Carlo diffusion kernels (Göktürk & Kaya,
// arXiv:2008.03095): 64 simulations run per pass with one uint64_t lane
// word per node, where bit j of a node's word means "active in simulation
// j". Frontier expansion becomes word operations over the out-CSR, and a
// popcount reduction at the end produces the per-simulation Γ(S) vector.
//
// Determinism contract. Simulations are grouped into 64-wide blocks; block
// b of a run keyed by `seed` derives a block seed, and every random draw
// inside the block comes from a per-node stream keyed by
// (block_seed, node) — a counter-based SplitMix64 stream for IC coin
// masks (draws pipeline with no serial state recurrence) and
// Rng::ForStream for LT thresholds:
//
//   * IC: node u's out-edge coin masks are drawn in out-edge order from
//     the coin stream of (block_seed, u). A mask's bit j is set with probability
//     W(u,v) (16-bit fixed point, see kCoinBits), built by an MSB-first
//     comparison ladder over the probability's binary digits with
//     early exit once every lane is decided. Masks are a function of
//     (seed, block, u) alone — not of traversal order — so any schedule
//     over blocks yields bit-identical results, and FusedScalarReplay can
//     re-derive any single simulation's cascade exactly.
//   * LT: node v's 64 thresholds are drawn from ForStream(block_seed, v)
//     on first contact. Activation recomputes the active in-weight sum in
//     in-edge order on every contact (instead of accumulating), which
//     makes the floating-point comparison independent of activation order:
//     fused and replayed cascades agree bit for bit.
#ifndef IMBENCH_DIFFUSION_FUSED_CASCADE_H_
#define IMBENCH_DIFFUSION_FUSED_CASCADE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "diffusion/cascade.h"
#include "graph/graph_view.h"

namespace imbench {

// Simulations fused per pass: one bit per simulation in a uint64_t.
inline constexpr uint32_t kFusedLanes = 64;

// Edge probabilities are quantized to kCoinBits binary digits when coin
// masks are built (absolute error <= 2^-(kCoinBits+1); 0 and 1 are exact).
// The comparison ladder draws one 64-bit word per digit until every lane
// is decided, so masks cost at most kCoinBits RNG draws per edge per
// block and about log2(64) + 2 in expectation — amortized over 64
// simulations.
inline constexpr int kCoinBits = 16;

// Reusable scratch for fused forward simulation. One context per thread;
// lane words are swept back to zero in O(touched) at block end, so
// repeated blocks never pay an O(n) clear.
class FusedCascadeContext {
 public:
  explicit FusedCascadeContext(const GraphView& graph);

  // Runs simulations [block*64, block*64 + lanes) of the ensemble keyed by
  // `seed` and writes Γ(S) of simulation block*64+j to gamma[j] for
  // j < lanes (a partial tail block uses lanes < 64). Deterministic in
  // (seed, block, seeds) alone.
  void RunBlock(DiffusionKind kind, std::span<const NodeId> seeds,
                uint64_t seed, uint64_t block, uint32_t lanes, NodeId* gamma);

  // The per-block key all in-block streams derive from.
  static uint64_t BlockSeed(uint64_t seed, uint64_t block);

  // Compressed neighbor blocks decoded since the last call (always 0 on
  // the heap backend). The parallel estimator takes it after every block
  // so its trace counts the kept prefix only.
  uint64_t TakeBlocksDecoded() {
    return std::exchange(out_scratch_.blocks_decoded, 0) +
           std::exchange(in_scratch_.blocks_decoded, 0);
  }

 private:
  void RunBlockIc(std::span<const NodeId> seeds, uint64_t block_seed,
                  uint64_t lane_mask);
  void RunBlockLt(std::span<const NodeId> seeds, uint64_t block_seed,
                  uint64_t lane_mask);
  void Activate(NodeId v, uint64_t bits);
  const double* LtThresholds(NodeId v, uint64_t block_seed);

  GraphView graph_;
  std::vector<uint32_t> p_fix_;  // per forward edge id, kCoinBits fixed point
  // Decode buffers for the compact backend. LT holds u's out-adjacency
  // while scanning each contacted v's in-adjacency, hence two scratches.
  AdjScratch out_scratch_;
  AdjScratch in_scratch_;

  uint32_t epoch_ = 0;
  // Invariant between blocks: every word is zero (restored by an
  // O(touched) sweep at block end), so a nonzero word doubles as the
  // "touched this block" marker and the hot loops carry no epoch stamps.
  std::vector<uint64_t> active_word_;
  std::vector<uint64_t> pending_word_;
  std::vector<uint32_t> mask_stamp_;  // u's out-edge masks valid this epoch
  std::vector<uint64_t> edge_mask_;   // per forward edge id
  std::vector<uint32_t> lt_stamp_;    // v's thresholds valid this epoch
  std::vector<uint32_t> lt_slot_;
  std::vector<double> lt_thresh_;     // 64 per slot, touched nodes only
  uint32_t lt_slots_used_ = 0;
  std::vector<NodeId> queue_;
  std::vector<NodeId> touched_;
};

// Replays one simulation of the fused ensemble with a plain sequential
// BFS, deriving the same coin masks / thresholds from the same streams.
// Returns Γ(S) for simulation `index`; bit-for-bit equal to lane index%64
// of FusedCascadeContext::RunBlock(..., index/64, ...). This is the
// differential anchor for the fused kernels (tests/fused_cascade_test.cc).
NodeId FusedScalarReplay(const GraphView& graph, DiffusionKind kind,
                         std::span<const NodeId> seeds, uint64_t seed,
                         uint64_t index);

}  // namespace imbench

#endif  // IMBENCH_DIFFUSION_FUSED_CASCADE_H_
