#include "diffusion/fused_cascade.h"

#include <bit>
#include <cmath>

namespace imbench {
namespace {

constexpr uint32_t kFixedOne = 1u << kCoinBits;
constexpr uint32_t kLtOne = 1u << kLtBits;

// Weller-style multiplier for decorrelating block indices before SplitMix64.
constexpr uint64_t kBlockMix = 0xd1342543de82ef95ULL;

// p clamped to [0, 1] and rounded to a multiple of 1/one (one = 2^bits).
uint32_t FixedPoint(double p, uint32_t one) {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return one;
  return static_cast<uint32_t>(std::lround(p * static_cast<double>(one)));
}

// An LT threshold θ in [0, 1), floored to kLtBits digits (exact: the
// product only shifts the exponent).
uint32_t FixedPointThreshold(double theta) {
  return static_cast<uint32_t>(theta * static_cast<double>(kLtOne));
}

// Coin-mask stream for one (block_seed, node) pair: a counter-based
// SplitMix64 sequence rather than a stateful xoshiro. Mask building is
// the hottest loop in the fused kernels and consumes ~8 draws back to
// back; SplitMix64's state advance is a single add, so consecutive draws
// carry no serial dependency through the mixer and pipeline fully —
// xoshiro's state recurrence chains them. Seeded by mixing the same
// (block_seed, node) preimage Rng::ForStream uses, so two nodes' counter
// ranges start at independent 64-bit points (a raw `seed ^ gamma*node`
// start would put adjacent nodes one constant apart and risk overlapping
// streams).
class CoinStream {
 public:
  CoinStream(uint64_t block_seed, uint64_t node) {
    uint64_t sm = block_seed ^ (0x9e3779b97f4a7c15ULL * (node + 1));
    state_ = SplitMix64(sm);
  }
  uint64_t Next() { return SplitMix64(state_); }

 private:
  uint64_t state_;
};

// A 64-bit word whose every bit is independently set with probability
// p_fix / 2^kCoinBits. Lane j succeeds iff an implicit uniform
// kCoinBits-bit value X_j < p_fix; X bits are consumed MSB-first, one
// 64-lane draw word per digit, and a lane is decided at the first digit
// where its X bit differs from p's (0 < 1: success; 1 > 0: failure).
// Undecided lanes halve per digit, so the expected draw count is about
// log2(64) + 2 regardless of p's digit pattern — the worst case is still
// kCoinBits draws, but a dense pattern like WC's 0.2 no longer pays all
// 16. Lanes undecided after every digit have X == p_fix's prefix, i.e.
// X >= p_fix: failure. Draws nothing for the exact probabilities 0 and 1,
// so skipped edges never perturb the stream.
uint64_t CoinMask(uint32_t p_fix, CoinStream& stream) {
  if (p_fix == 0) return 0;
  if (p_fix >= kFixedOne) return ~0ULL;
  uint64_t mask = 0;
  uint64_t undecided = ~0ULL;
  for (int digit = kCoinBits - 1; digit >= 0; --digit) {
    const uint64_t draw = stream.Next();
    if (((p_fix >> digit) & 1) != 0) {
      mask |= undecided & ~draw;
      undecided &= draw;
    } else {
      undecided &= ~draw;
    }
    if (undecided == 0) break;
  }
  return mask;
}

std::vector<uint32_t> FixedPoints(std::span<const double> weights,
                                  uint32_t one) {
  std::vector<uint32_t> fixed(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    fixed[i] = FixedPoint(weights[i], one);
  }
  return fixed;
}

uint64_t LaneMask(uint32_t lanes) {
  return lanes >= 64 ? ~0ULL : (uint64_t{1} << lanes) - 1;
}

}  // namespace

FusedCascadeContext::FusedCascadeContext(const GraphView& graph)
    : graph_(graph),
      active_word_(graph.num_nodes(), 0),
      pending_word_(graph.num_nodes(), 0),
      mask_stamp_(graph.num_nodes(), 0),
      lt_stamp_(graph.num_nodes(), 0),
      lt_slot_(graph.num_nodes(), 0) {}

uint64_t FusedCascadeContext::BlockSeed(uint64_t seed, uint64_t block) {
  uint64_t sm = seed ^ (kBlockMix * (block + 1));
  return SplitMix64(sm);
}

void FusedCascadeContext::RunBlock(DiffusionKind kind,
                                   std::span<const NodeId> seeds,
                                   uint64_t seed, uint64_t block,
                                   uint32_t lanes, NodeId* gamma) {
  ++epoch_;
  queue_.clear();
  touched_.clear();
  lt_slots_used_ = 0;
  const uint64_t block_seed = BlockSeed(seed, block);
  const uint64_t lane_mask = LaneMask(lanes);
  if (kind == DiffusionKind::kIndependentCascade) {
    if (p_fix_.size() != graph_.num_edges()) {
      p_fix_ = FixedPoints(graph_.weights(), kFixedOne);
      edge_mask_.assign(graph_.num_edges(), 0);
    }
    RunBlockIc(seeds, block_seed, lane_mask);
  } else {
    if (lt_fix_.size() != graph_.num_edges()) {
      lt_fix_ = FixedPoints(graph_.weights(), kLtOne);
    }
    RunBlockLt(seeds, block_seed, lane_mask);
  }
  // The popcount sweep doubles as the O(touched) cleanup that restores the
  // all-zero word invariant the next block relies on: a nonzero
  // active_word_ IS the "touched this block" marker (no epoch stamps on
  // the hot path), which is sound because every pending bit is drained
  // before RunBlock returns.
  for (uint32_t j = 0; j < lanes; ++j) gamma[j] = 0;
  for (const NodeId v : touched_) {
    uint64_t word = active_word_[v];
    active_word_[v] = 0;
    while (word != 0) {
      ++gamma[std::countr_zero(word)];
      word &= word - 1;
    }
  }
}

void FusedCascadeContext::Activate(NodeId v, uint64_t bits) {
  if (active_word_[v] == 0) touched_.push_back(v);
  active_word_[v] |= bits;
  if (pending_word_[v] == 0) queue_.push_back(v);
  pending_word_[v] |= bits;
}

void FusedCascadeContext::RunBlockIc(std::span<const NodeId> seeds,
                                     uint64_t block_seed, uint64_t lane_mask) {
  for (const NodeId s : seeds) {
    if (active_word_[s] == 0) Activate(s, lane_mask);
  }
  for (size_t head = 0; head < queue_.size(); ++head) {
    const NodeId u = queue_[head];
    const uint64_t frontier = pending_word_[u];
    pending_word_[u] = 0;
    const std::span<const NodeId> targets = graph_.OutTargets(u, out_scratch_);
    if (targets.empty()) continue;
    const size_t base = static_cast<size_t>(graph_.OutEdgeBase(u));
    if (mask_stamp_[u] != epoch_) {
      mask_stamp_[u] = epoch_;
      CoinStream stream(block_seed, u);
      for (size_t i = 0; i < targets.size(); ++i) {
        edge_mask_[base + i] = CoinMask(p_fix_[base + i], stream);
      }
    }
    for (size_t i = 0; i < targets.size(); ++i) {
      uint64_t add = frontier & edge_mask_[base + i];
      if (add == 0) continue;
      const NodeId v = targets[i];
      add &= ~active_word_[v];  // untouched nodes hold 0: AND-NOT is free
      if (add == 0) continue;
      Activate(v, add);
    }
  }
}

FusedCascadeContext::LtSlot& FusedCascadeContext::LtSlotFor(
    NodeId v, uint64_t block_seed) {
  if (lt_stamp_[v] != epoch_) {
    lt_stamp_[v] = epoch_;
    lt_slot_[v] = lt_slots_used_++;
    if (lt_slots_.size() < lt_slots_used_) lt_slots_.resize(lt_slots_used_);
    LtSlot& slot = lt_slots_[lt_slot_[v]];
    Rng rng = Rng::ForStream(block_seed, v);
    for (uint32_t j = 0; j < kFusedLanes; ++j) {
      slot.threshold[j] = FixedPointThreshold(rng.NextDouble());
      slot.sum[j] = 0;
    }
  }
  return lt_slots_[lt_slot_[v]];
}

void FusedCascadeContext::RunBlockLt(std::span<const NodeId> seeds,
                                     uint64_t block_seed, uint64_t lane_mask) {
  for (const NodeId s : seeds) {
    if (active_word_[s] == 0) Activate(s, lane_mask);
  }
  for (size_t head = 0; head < queue_.size(); ++head) {
    const NodeId u = queue_[head];
    const uint64_t frontier = pending_word_[u];
    pending_word_[u] = 0;
    const std::span<const NodeId> targets = graph_.OutTargets(u, out_scratch_);
    if (targets.empty()) continue;
    const uint32_t* weights = &lt_fix_[graph_.OutEdgeBase(u)];
    for (size_t i = 0; i < targets.size(); ++i) {
      const NodeId v = targets[i];
      uint64_t contact = frontier & ~active_word_[v];
      if (contact == 0) continue;
      // Each of u's newly active lanes adds W(u,v) to v's sum exactly once
      // (u enters the frontier once per lane), and only while v is
      // inactive in that lane.
      LtSlot& slot = LtSlotFor(v, block_seed);
      uint64_t newly = 0;
      while (contact != 0) {
        const int j = std::countr_zero(contact);
        contact &= contact - 1;
        slot.sum[j] += weights[i];
        if (slot.sum[j] >= slot.threshold[j]) newly |= uint64_t{1} << j;
      }
      if (newly != 0) Activate(v, newly);
    }
  }
}

NodeId FusedScalarReplay(const GraphView& graph, DiffusionKind kind,
                         std::span<const NodeId> seeds, uint64_t seed,
                         uint64_t index) {
  const uint64_t block_seed =
      FusedCascadeContext::BlockSeed(seed, index / kFusedLanes);
  const int lane = static_cast<int>(index % kFusedLanes);
  std::vector<uint8_t> active(graph.num_nodes(), 0);
  std::vector<NodeId> queue;
  AdjScratch out_scratch;
  for (const NodeId s : seeds) {
    if (active[s] == 0) {
      active[s] = 1;
      queue.push_back(s);
    }
  }
  NodeId count = static_cast<NodeId>(queue.size());
  if (kind == DiffusionKind::kIndependentCascade) {
    for (size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      const auto [targets, weights] = graph.Out(u, out_scratch);
      if (targets.empty()) continue;
      CoinStream stream(block_seed, u);
      for (size_t i = 0; i < targets.size(); ++i) {
        const uint64_t mask =
            CoinMask(FixedPoint(weights[i], kFixedOne), stream);
        const NodeId v = targets[i];
        if (((mask >> lane) & 1) != 0 && active[v] == 0) {
          active[v] = 1;
          queue.push_back(v);
          ++count;
        }
      }
    }
  } else {
    std::vector<uint32_t> threshold(graph.num_nodes(), 0);
    std::vector<uint32_t> sum(graph.num_nodes(), 0);
    std::vector<uint8_t> threshold_done(graph.num_nodes(), 0);
    for (size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      const auto [targets, weights] = graph.Out(u, out_scratch);
      for (size_t i = 0; i < targets.size(); ++i) {
        const NodeId v = targets[i];
        if (active[v] != 0) continue;
        if (threshold_done[v] == 0) {
          threshold_done[v] = 1;
          Rng rng = Rng::ForStream(block_seed, v);
          double draw = 0;
          for (int j = 0; j <= lane; ++j) draw = rng.NextDouble();
          threshold[v] = FixedPointThreshold(draw);
        }
        sum[v] += FixedPoint(weights[i], kLtOne);
        if (sum[v] >= threshold[v]) {
          active[v] = 1;
          queue.push_back(v);
          ++count;
        }
      }
    }
  }
  return count;
}

}  // namespace imbench
