// Shared pieces of the imbench performance benchmark: run arguments,
// order statistics, process CPU time, trace-to-layer rows and
// the JSON report that run.py turns into the final result line.
#ifndef IMBENCH_PERFBENCH_PERF_UTIL_H_
#define IMBENCH_PERFBENCH_PERF_UTIL_H_

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "diffusion/rr_sets.h"
#include "framework/datasets.h"
#include "framework/trace.h"
#include "graph/graph_view.h"
#include "graph/weights.h"

namespace perfbench {

// Every workload runs its parallel stages on two lanes: the calling thread
// plus one pool worker. On a 4-core box this leaves room for the harness
// and for other tenants; four lanes made single runs swing by 2x.
inline constexpr uint32_t kThreads = 2;

struct BenchArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch files (the wc workload's .imgrf copy)
};

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// Linear-interpolation percentile, q in [0, 1].
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

// Process CPU time, user + system over all threads. The guest kernel
// accounts time the host steals from a virtual CPU apart from task time
// (paravirt steal clock), so unlike wall time this does not grow when the
// host takes a CPU away. Every gated time metric is one of these.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Elapsed {
  double wall_s = 0;
  double cpu_s = 0;  // process CPU time, see ProcessCpuSeconds()
};

// Wall and process CPU time of one operation, from construction to Stop().
class OpTimer {
 public:
  Elapsed Stop() const {
    Elapsed e;
    e.wall_s = wall_.Seconds();
    e.cpu_s = ProcessCpuSeconds() - cpu_start_;
    return e;
  }

 private:
  double cpu_start_ = ProcessCpuSeconds();
  imbench::Timer wall_;
};

// CPU time over wall time on kThreads lanes: 1.0 means both lanes were
// busy for the whole call.
inline double CpuUtil(const Elapsed& e) {
  return e.wall_s > 0 ? e.cpu_s / (e.wall_s * kThreads) : 0;
}

inline constexpr double kMiB = 1024.0 * 1024.0;

// Every workload runs on one graph: the livejournal profile of the dataset
// catalog at bench scale (14,000 nodes, 199,175 arcs) from the catalog's
// own generator seed. The dataset stays fixed, as a crawl would; the run
// seed drives everything random that runs on it. Generates the graph,
// assigns `model` weights and times both steps.
inline imbench::Graph BuildGraph(imbench::WeightModel model,
                                 imbench::Trace* trace, double* generate_s,
                                 double* weights_s) {
  imbench::Timer timer;
  imbench::Graph graph;
  {
    imbench::Span span(trace, "graph:generate");
    graph = imbench::MakeDataset("livejournal", imbench::DatasetScale::kBench);
  }
  *generate_s = timer.Seconds();
  timer.Restart();
  {
    imbench::Span span(trace, "graph:weights");
    imbench::Rng unused(0);  // WC and LT-uniform draw nothing
    imbench::AssignWeights(graph, model, 0, unused);
  }
  *weights_s = timer.Seconds();
  return graph;
}

// One row of the per-layer table: a span name aggregated over its calls.
struct LayerRow {
  std::string layer;
  std::string span;
  int calls = 0;
  double total_s = 0;
  double self_s = 0;
  double heap_mb = 0;
  std::map<std::string, uint64_t> counters;  // nonzero inclusive counters
};

// Layer that owns a span. The benchmark names its own spans
// "<layer>:<call>"; spans opened inside the library carry bare phase
// names, which are mapped here.
inline std::string LayerOfSpan(const std::string& name) {
  const size_t colon = name.find(':');
  if (colon != std::string::npos) return name.substr(0, colon);
  if (name == "sample" || name == "bound" || name == "final") {
    return "diffusion.rr";
  }
  if (name == "select") return "algorithms.imm";
  return "other";
}

// Folds every closed span of `trace` into `rows`, keyed by span path
// (parent/child names), with self time = duration minus direct children.
inline void AppendLayerRows(const imbench::Trace& trace,
                            std::vector<LayerRow>* rows) {
  const auto& spans = trace.spans();
  std::vector<double> child_time(spans.size(), 0);
  std::vector<std::string> path(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const imbench::TraceSpan& s = spans[i];
    path[i] = s.parent < 0 ? s.name : path[s.parent] + "/" + s.name;
    if (s.parent >= 0) child_time[s.parent] += s.duration_seconds;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const imbench::TraceSpan& s = spans[i];
    if (!s.closed) continue;
    LayerRow* row = nullptr;
    for (LayerRow& r : *rows) {
      if (r.span == path[i]) row = &r;
    }
    if (row == nullptr) {
      rows->push_back(LayerRow{});
      row = &rows->back();
      row->layer = LayerOfSpan(s.name);
      row->span = path[i];
    }
    ++row->calls;
    row->total_s += s.duration_seconds;
    row->self_s += s.duration_seconds - child_time[i];
    row->heap_mb += static_cast<double>(s.heap_delta_bytes) / kMiB;
    for (int c = 0; c < imbench::kNumTraceCounters; ++c) {
      if (s.counters[c] != 0) {
        row->counters[imbench::TraceCounterName(
            static_cast<imbench::TraceCounter>(c))] += s.counters[c];
      }
    }
  }
}

// Collects metrics, output checks and operation outcomes, and writes them
// as one JSON object on the last line of stdout.
class Report {
 public:
  // `samples` is how many measurements the value summarizes (run.py
  // refuses a percentile without ten samples beyond it).
  void Metric(const std::string& name, double value, const char* unit,
              size_t samples = 1) {
    metrics_.push_back({name, value, unit, samples});
  }

  // Counts one operation; a false `ok` counts it as failed.
  void Op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  // Records one evaluation of a named output check; the check passes only
  // if every evaluation passed. A failed check fails the run. Callers also
  // count the operation it judged as failed through Op().
  bool Check(const std::string& name, bool ok) {
    CheckResult* check = nullptr;
    for (CheckResult& c : checks_) {
      if (c.name == name) check = &c;
    }
    if (check == nullptr) {
      checks_.push_back({name, true});
      check = &checks_.back();
    }
    if (!ok && check->ok) {
      std::fprintf(stderr, "check failed: %s\n", name.c_str());
    }
    check->ok = check->ok && ok;
    return ok;
  }

  std::vector<LayerRow>& rows() { return rows_; }

  void Print() const {
    std::string out = "{\"attempted\": " + std::to_string(attempted_) +
                      ", \"failed\": " + std::to_string(failed_) +
                      ", \"checks\": {";
    for (size_t i = 0; i < checks_.size(); ++i) {
      out += (i ? ", \"" : "\"") + checks_[i].name +
             "\": " + (checks_[i].ok ? "true" : "false");
    }
    out += "}, \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const MetricValue& m = metrics_[i];
      out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
             Number(m.value) + ", \"unit\": \"" + m.unit +
             "\", \"samples\": " + std::to_string(m.samples) + "}";
    }
    out += "}, \"layers\": [";
    for (size_t i = 0; i < rows_.size(); ++i) {
      const LayerRow& r = rows_[i];
      out += std::string(i ? ", " : "") + "{\"layer\": \"" + r.layer +
             "\", \"span\": \"" + r.span +
             "\", \"calls\": " + std::to_string(r.calls) +
             ", \"total_s\": " + Number(r.total_s) +
             ", \"self_s\": " + Number(r.self_s) +
             ", \"heap_mb\": " + Number(r.heap_mb) + ", \"counters\": {";
      bool first = true;
      for (const auto& [name, value] : r.counters) {
        out += std::string(first ? "\"" : ", \"") + name +
               "\": " + std::to_string(value);
        first = false;
      }
      out += "}}";
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  struct MetricValue {
    std::string name;
    double value;
    const char* unit;
    size_t samples;
  };
  struct CheckResult {
    std::string name;
    bool ok;
  };

  static std::string Number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  std::vector<MetricValue> metrics_;
  std::vector<CheckResult> checks_;
  std::vector<LayerRow> rows_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// RR sampling alone: `reps` runs of MakeRrEngine(...)->Generate of the
// first `theta` sets of stream `seed` on kThreads lanes, with none of the
// covers IMM interleaves with sampling. Reports diffusion.rr.sets_per_s,
// .useful_ratio (corpus entries per edge examined) and .cpu_util.
inline void ReportRrSamplingAlone(const imbench::GraphView& graph,
                                  imbench::DiffusionKind kind,
                                  imbench::ThreadPool* pool, uint64_t seed,
                                  uint64_t theta, int reps, Report& report) {
  using namespace imbench;
  Trace trace;
  SamplerOptions sampler;
  sampler.kind = kind;
  sampler.threads = kThreads;
  sampler.pool = pool;
  sampler.trace = &trace;
  RrCollection corpus(graph.num_nodes());
  std::vector<double> wall, util;
  for (int rep = 0; rep < reps; ++rep) {
    corpus = RrCollection(graph.num_nodes());
    std::unique_ptr<RrEngine> engine = MakeRrEngine(graph, sampler);
    const OpTimer timer;
    RrBatchResult batch;
    {
      Span span(&trace, "diffusion.rr:Generate");
      batch = engine->Generate(seed, theta, corpus);
      TraceAdd(&trace, TraceCounter::kRrSets, batch.generated);
    }
    const Elapsed elapsed = timer.Stop();
    wall.push_back(elapsed.wall_s);
    util.push_back(CpuUtil(elapsed));
    report.Op(report.Check("rr.generate_complete",
                           batch.stop == StopReason::kNone &&
                               batch.generated == theta));
  }
  const double edges_per_rep =
      static_cast<double>(trace.Total(TraceCounter::kRrEdgesExamined)) / reps;
  report.Metric("diffusion.rr.sets_per_s", theta / Median(wall), "1/s",
                wall.size());
  report.Metric("diffusion.rr.useful_ratio",
                static_cast<double>(corpus.TotalEntries()) / edges_per_rep,
                "ratio");
  report.Metric("diffusion.rr.cpu_util", Median(util), "ratio", util.size());
  AppendLayerRows(trace, &report.rows());
}

}  // namespace perfbench

#endif  // IMBENCH_PERFBENCH_PERF_UTIL_H_
