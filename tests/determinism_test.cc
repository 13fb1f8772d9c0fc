// The RR engine's core contract: thread-count invariance. RR corpora, seed
// sets and spread estimates must be bit-identical for threads in {1, 2, 8}
// and equal to the per-set streams RrSampler::GenerateStream draws, fault
// plans must truncate at the same prefix, and budget trips must stop
// promptly with the right StopReason while still returning a deterministic
// prefix.
//
// Tests inject private ThreadPool instances (threads - 1 workers) so real
// concurrency runs even on single-core machines, where the shared pool has
// zero workers and everything would silently degrade to inline execution.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algorithms/imm.h"
#include "algorithms/ris.h"
#include "algorithms/tim_plus.h"
#include "common/thread_pool.h"
#include "diffusion/rr_sets.h"
#include "framework/datasets.h"
#include "framework/fault.h"
#include "framework/run_guard.h"
#include "graph/compact_graph.h"
#include "graph/graph_file.h"
#include "graph/weights.h"

namespace imbench {
namespace {

Graph WcGraph() {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignWeightedCascade(g);
  return g;
}

std::vector<std::vector<NodeId>> CorpusOf(const RrCollection& c) {
  std::vector<std::vector<NodeId>> sets;
  sets.reserve(c.size());
  for (size_t i = 0; i < c.size(); ++i) {
    const auto span = c.Set(i);
    sets.emplace_back(span.begin(), span.end());
  }
  return sets;
}

// The reference corpus: sets 0..count-1 drawn one by one from their
// streams. With `max_total_entries` > 0 it stops after the set whose
// entries cross the cap, which the engine keeps.
std::vector<std::vector<NodeId>> StreamCorpus(
    const GraphView& g, DiffusionKind kind, uint64_t seed, uint64_t count,
    std::vector<uint64_t>* widths = nullptr, uint64_t max_total_entries = 0) {
  RrSampler sampler(g, kind);
  std::vector<std::vector<NodeId>> sets;
  std::vector<NodeId> set;
  uint64_t entries = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t width = sampler.GenerateStream(seed, i, set);
    if (widths != nullptr) widths->push_back(width);
    sets.push_back(set);
    entries += set.size();
    if (max_total_entries != 0 && entries > max_total_entries) break;
  }
  return sets;
}

TEST(SamplingDeterminismTest, CorpusBitIdenticalAcrossThreadCounts) {
  const Graph g = WcGraph();
  constexpr uint64_t kSets = 700;  // not a multiple of the batch size
  constexpr uint64_t kSeed = 42;

  std::vector<uint64_t> reference_widths;
  const auto reference_corpus =
      StreamCorpus(g, DiffusionKind::kIndependentCascade, kSeed, kSets,
                   &reference_widths);
  ASSERT_EQ(reference_corpus.size(), kSets);

  for (const uint32_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads - 1);
    SamplerOptions options;
    options.threads = threads;
    options.pool = &pool;
    std::unique_ptr<RrEngine> engine = MakeRrEngine(g, options);
    RrCollection corpus(g.num_nodes());
    std::vector<uint64_t> widths;
    const RrBatchResult result =
        engine->Generate(kSeed, kSets, corpus, &widths);
    EXPECT_EQ(result.generated, kSets) << threads;
    EXPECT_EQ(result.stop, StopReason::kNone) << threads;
    EXPECT_EQ(CorpusOf(corpus), reference_corpus) << threads;
    EXPECT_EQ(widths, reference_widths) << threads;
  }
}

TEST(SamplingDeterminismTest, SplitCallsMatchOneCall) {
  // The engine keeps a global stream cursor, so Generate(300) + Generate(400)
  // must produce the same corpus as one Generate(700).
  const Graph g = WcGraph();
  SamplerOptions options;
  RrEngine one_call(g, options);
  RrCollection whole(g.num_nodes());
  one_call.Generate(9, 700, whole, nullptr);
  EXPECT_EQ(CorpusOf(whole),
            StreamCorpus(g, DiffusionKind::kIndependentCascade, 9, 700));

  ThreadPool pool(3);
  options.threads = 4;
  options.pool = &pool;
  std::unique_ptr<RrEngine> engine = MakeRrEngine(g, options);
  RrCollection split(g.num_nodes());
  engine->Generate(9, 300, split, nullptr);
  engine->Generate(9, 400, split, nullptr);
  EXPECT_EQ(CorpusOf(split), CorpusOf(whole));
}

TEST(SamplingDeterminismTest, EntryCapTripsIdenticallyAcrossThreads) {
  // The kMemory safety valve is checked in the single-threaded merge, so
  // the truncated corpus must also be thread-count invariant.
  const Graph g = WcGraph();
  const auto reference =
      StreamCorpus(g, DiffusionKind::kIndependentCascade, 7, 100000,
                   nullptr, /*max_total_entries=*/500);
  ASSERT_GT(reference.size(), 0u);
  ASSERT_LT(reference.size(), 100000u);

  for (const uint32_t threads : {1u, 8u}) {
    ThreadPool pool(threads - 1);
    SamplerOptions options;
    options.max_total_entries = 500;
    options.threads = threads;
    options.pool = &pool;
    std::unique_ptr<RrEngine> engine = MakeRrEngine(g, options);
    RrCollection corpus(g.num_nodes());
    const RrBatchResult result = engine->Generate(7, 100000, corpus, nullptr);
    EXPECT_EQ(result.stop, StopReason::kMemory) << threads;
    EXPECT_EQ(CorpusOf(corpus), reference) << threads;
  }
}

TEST(SamplingDeterminismTest, ArenaFaultReplaysIdenticallyAcrossThreads) {
  // rr_arena_grow is hit once per merged batch at every thread count, so
  // one plan truncates every run after the same two batches with the same
  // transient reason, and the corpus is that prefix of the streams.
  const Graph g = WcGraph();
  const auto reference =
      StreamCorpus(g, DiffusionKind::kIndependentCascade, 3, 700);
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("rr_arena_grow:hit=3:fires=1", &plan, &error))
      << error;
  for (const uint32_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads - 1);
    SamplerOptions options;
    options.threads = threads;
    options.pool = &pool;
    RrEngine engine(g, options);
    RrCollection corpus(g.num_nodes());
    RrBatchResult result;
    {
      ScopedFaultPlan scoped(plan);
      result = engine.Generate(3, 700, corpus, nullptr);
    }
    EXPECT_EQ(result.stop, StopReason::kFault) << threads;
    EXPECT_EQ(result.generated, 2 * RrEngine::kBatchSets) << threads;
    EXPECT_EQ(CorpusOf(corpus),
              std::vector<std::vector<NodeId>>(
                  reference.begin(),
                  reference.begin() + 2 * RrEngine::kBatchSets))
        << threads;
  }
}

TEST(SamplingDeterminismTest, GuardTripStopsPromptlyWithPrefixCorpus) {
  // An already-expired deadline: the parallel engine must drain its lanes,
  // report kDeadline, and whatever it did append must be a prefix of the
  // deterministic sequence.
  const Graph g = WcGraph();
  RunBudget budget;
  budget.deadline_seconds = 0.0;
  RunGuard guard(budget);

  ThreadPool pool(3);
  SamplerOptions options;
  options.guard = &guard;
  options.threads = 4;
  options.pool = &pool;
  RrEngine engine(g, options);
  RrCollection corpus(g.num_nodes());
  const RrBatchResult result = engine.Generate(5, 100000, corpus, nullptr);
  EXPECT_EQ(result.stop, StopReason::kDeadline);
  EXPECT_TRUE(guard.stopped());  // Propagate() reached the parent guard
  EXPECT_LT(result.generated, 100000u);  // stopped long before the target

  RrSampler reference(g, DiffusionKind::kIndependentCascade);
  std::vector<NodeId> expected;
  for (size_t i = 0; i < corpus.size(); ++i) {
    reference.GenerateStream(5, i, expected);
    const auto actual = corpus.Set(i);
    ASSERT_EQ(std::vector<NodeId>(actual.begin(), actual.end()), expected)
        << i;
  }
}

TEST(SamplingDeterminismTest, CancelFlagDrainsParallelGeneration) {
  const Graph g = WcGraph();
  std::atomic<bool> cancel{true};
  RunBudget budget;
  budget.cancel = &cancel;
  RunGuard guard(budget);

  ThreadPool pool(3);
  SamplerOptions options;
  options.guard = &guard;
  options.threads = 4;
  options.pool = &pool;
  RrEngine engine(g, options);
  RrCollection corpus(g.num_nodes());
  const RrBatchResult result = engine.Generate(5, 100000, corpus, nullptr);
  EXPECT_EQ(result.stop, StopReason::kCancelled);
  EXPECT_LT(result.generated, 100000u);
}

template <typename Algorithm>
std::vector<NodeId> SeedsWithThreads(const Graph& g, uint32_t threads,
                                     ThreadPool* pool) {
  Algorithm algorithm({});
  SelectionInput input;
  input.graph = &g;
  input.diffusion = DiffusionKind::kIndependentCascade;
  input.k = 8;
  input.seed = 3;
  input.threads = threads;
  input.pool = pool;
  return algorithm.Select(input).seeds;
}

// --- Backend differential: the mmap'd CompactGraph must be a drop-in
// replacement for the heap CSR — corpora and seed sets bit-identical for
// every thread count, per the PR 3 determinism contract.

class BackendDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = WcGraph();
    path_ = ::testing::TempDir() + "/backend_diff.imgrf";
    std::string error;
    ASSERT_TRUE(WriteGraphFile(graph_, WeightModel::kWc, path_, &error))
        << error;
    ASSERT_EQ(CompactGraph::Open(path_, &compact_, &error),
              GraphFileStatus::kOk)
        << error;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  template <typename Algorithm>
  std::vector<NodeId> Seeds(bool use_compact, uint32_t threads,
                            ThreadPool* pool) {
    Algorithm algorithm({});
    SelectionInput input;
    if (use_compact) {
      input.compact = &compact_;
    } else {
      input.graph = &graph_;
    }
    input.diffusion = DiffusionKind::kIndependentCascade;
    input.k = 8;
    input.seed = 3;
    input.threads = threads;
    input.pool = pool;
    return algorithm.Select(input).seeds;
  }

  Graph graph_;
  CompactGraph compact_;
  std::string path_;
};

TEST_F(BackendDifferentialTest, SequentialCorpusIdenticalAcrossBackends) {
  SamplerOptions options;
  RrEngine on_memory(graph_, options);
  RrCollection memory_corpus(graph_.num_nodes());
  std::vector<uint64_t> memory_widths;
  on_memory.Generate(42, 700, memory_corpus, &memory_widths);

  RrEngine on_compact(compact_, options);
  RrCollection compact_corpus(compact_.num_nodes());
  std::vector<uint64_t> compact_widths;
  on_compact.Generate(42, 700, compact_corpus, &compact_widths);

  EXPECT_EQ(CorpusOf(compact_corpus), CorpusOf(memory_corpus));
  EXPECT_EQ(compact_widths, memory_widths);
}

TEST_F(BackendDifferentialTest, LtCorpusIdenticalAcrossBackends) {
  Graph lt_graph = MakeDataset("nethept", DatasetScale::kTiny);
  AssignLtUniform(lt_graph);
  const std::string lt_path = ::testing::TempDir() + "/backend_lt.imgrf";
  std::string error;
  ASSERT_TRUE(
      WriteGraphFile(lt_graph, WeightModel::kLtUniform, lt_path, &error));
  CompactGraph lt_compact;
  ASSERT_EQ(CompactGraph::Open(lt_path, &lt_compact, &error),
            GraphFileStatus::kOk);

  SamplerOptions options;
  options.kind = DiffusionKind::kLinearThreshold;
  RrEngine on_memory(lt_graph, options);
  RrCollection memory_corpus(lt_graph.num_nodes());
  on_memory.Generate(11, 400, memory_corpus, nullptr);
  RrEngine on_compact(lt_compact, options);
  RrCollection compact_corpus(lt_compact.num_nodes());
  on_compact.Generate(11, 400, compact_corpus, nullptr);
  EXPECT_EQ(CorpusOf(compact_corpus), CorpusOf(memory_corpus));
  std::remove(lt_path.c_str());
}

TEST_F(BackendDifferentialTest, SeedsIdenticalAcrossBackendsAndThreads) {
  const std::vector<NodeId> tim = Seeds<TimPlus>(false, 1, nullptr);
  const std::vector<NodeId> imm = Seeds<Imm>(false, 1, nullptr);
  const std::vector<NodeId> ris = Seeds<Ris>(false, 1, nullptr);
  for (const uint32_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads - 1);
    ThreadPool* p = threads == 1 ? nullptr : &pool;
    EXPECT_EQ(Seeds<TimPlus>(true, threads, p), tim) << threads;
    EXPECT_EQ(Seeds<Imm>(true, threads, p), imm) << threads;
    EXPECT_EQ(Seeds<Ris>(true, threads, p), ris) << threads;
  }
}

TEST(SamplingDeterminismTest, TimPlusSeedsInvariantUnderThreads) {
  const Graph g = WcGraph();
  const std::vector<NodeId> reference =
      SeedsWithThreads<TimPlus>(g, 1, nullptr);
  ASSERT_EQ(reference.size(), 8u);
  for (const uint32_t threads : {2u, 8u}) {
    ThreadPool pool(threads - 1);
    EXPECT_EQ(SeedsWithThreads<TimPlus>(g, threads, &pool), reference)
        << threads;
  }
}

TEST(SamplingDeterminismTest, ImmSeedsInvariantUnderThreads) {
  const Graph g = WcGraph();
  const std::vector<NodeId> reference = SeedsWithThreads<Imm>(g, 1, nullptr);
  ASSERT_EQ(reference.size(), 8u);
  for (const uint32_t threads : {2u, 8u}) {
    ThreadPool pool(threads - 1);
    EXPECT_EQ(SeedsWithThreads<Imm>(g, threads, &pool), reference) << threads;
  }
}

TEST(SamplingDeterminismTest, RisSeedsInvariantUnderThreads) {
  const Graph g = WcGraph();
  const std::vector<NodeId> reference = SeedsWithThreads<Ris>(g, 1, nullptr);
  ASSERT_EQ(reference.size(), 8u);
  for (const uint32_t threads : {2u, 8u}) {
    ThreadPool pool(threads - 1);
    EXPECT_EQ(SeedsWithThreads<Ris>(g, threads, &pool), reference) << threads;
  }
}

TEST(SamplingDeterminismTest, LtCorpusInvariantUnderThreads) {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignLtUniform(g);
  const auto reference =
      StreamCorpus(g, DiffusionKind::kLinearThreshold, 11, 400);

  for (const uint32_t threads : {1u, 8u}) {
    ThreadPool pool(threads - 1);
    SamplerOptions options;
    options.kind = DiffusionKind::kLinearThreshold;
    options.threads = threads;
    options.pool = &pool;
    std::unique_ptr<RrEngine> engine = MakeRrEngine(g, options);
    RrCollection corpus(g.num_nodes());
    engine->Generate(11, 400, corpus, nullptr);
    EXPECT_EQ(CorpusOf(corpus), reference) << threads;
  }
}

TEST(RrCollectionTest, TruncateToUnwindsInvertedIndex) {
  RrCollection c(5);
  c.Add({0, 1});
  c.Add({1, 2, 3});
  c.Add({3, 4});
  ASSERT_EQ(c.size(), 3u);
  ASSERT_EQ(c.TotalEntries(), 7u);
  c.TruncateTo(1);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.TotalEntries(), 2u);
  // Greedy cover over the remaining single set behaves as if the dropped
  // sets never existed: any member of {0,1} covers everything.
  double fraction = 0;
  const std::vector<NodeId> seeds = c.GreedyMaxCover(1, &fraction);
  EXPECT_DOUBLE_EQ(fraction, 1.0);
  EXPECT_TRUE(seeds[0] == 0 || seeds[0] == 1);
}

TEST(RrCollectionTest, MemoryBytesCountsArenasAndInvertedIndex) {
  // Flat-arena accounting (the Fig. 8 metric): an empty corpus holds two
  // near-empty arrays — no per-node or per-set vector headers — and the
  // CSR inverted index only materializes (and starts being counted) when
  // the first GreedyMaxCover builds it.
  RrCollection c(1000);
  const uint64_t empty_bytes = c.MemoryBytes();
  EXPECT_LT(empty_bytes, 4096u);
  c.Add({1, 2, 3, 4, 5});
  EXPECT_GE(c.MemoryBytes(), empty_bytes + 5 * sizeof(NodeId));
  const uint64_t before_cover = c.MemoryBytes();
  c.GreedyMaxCover(1);
  // Index arenas: 1001 offsets plus one slot per member entry.
  EXPECT_GE(c.MemoryBytes(),
            before_cover + 1001 * sizeof(uint64_t) + 5 * sizeof(uint32_t));
}

}  // namespace
}  // namespace imbench
