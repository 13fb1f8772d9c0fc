#include "graph/compact_graph.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "framework/fault.h"
#include "framework/trace.h"

namespace imbench {

namespace {

using imgrf::DecodeVarint;
using imgrf::kBlockSize;

GraphFileStatus Refuse(GraphFileStatus status, std::string* error,
                       const std::string& message) {
  if (error != nullptr) *error = message;
  return status;
}

struct HeaderReader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;
  bool ok = true;

  uint32_t U32() {
    uint32_t v = 0;
    Raw(&v, sizeof v);
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Raw(&v, sizeof v);
    return v;
  }
  void Raw(void* out, size_t n) {
    if (pos + n > size) {
      ok = false;
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, data + pos, n);
    pos += n;
  }
};

// Bounded LEB128 read: false if the varint runs past `end` or past 64 bits.
bool ReadVarint(const uint8_t*& p, const uint8_t* end, uint64_t* v) {
  uint64_t r = 0;
  for (int shift = 0; shift < 64 && p < end; shift += 7) {
    const uint8_t byte = *p++;
    r |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if (byte < 0x80) {
      *v = r;
      return true;
    }
  }
  return false;
}

// Walks every node's neighbor blocks in one direction and checks what the
// unbounded decoders take on trust: each id is < num_nodes and ascending
// within its node, each node's varints end exactly at the next node's byte
// offset, and — for in-blocks, when `out_edge_offsets` is given — every
// rank is below the source's out-degree. The offset arrays must already be
// monotone and end at the section size.
bool BlocksWellFormed(const uint8_t* blocks, const uint64_t* edge_offsets,
                      const uint64_t* byte_offsets, NodeId num_nodes,
                      const uint64_t* out_edge_offsets) {
  for (NodeId v = 0; v < num_nodes; ++v) {
    const uint8_t* p = blocks + byte_offsets[v];
    const uint8_t* const end = blocks + byte_offsets[v + 1];
    const uint64_t degree = edge_offsets[v + 1] - edge_offsets[v];
    uint64_t prev = 0;
    for (uint64_t i = 0; i < degree; ++i) {
      uint64_t delta;
      if (!ReadVarint(p, end, &delta) || delta >= num_nodes) return false;
      const uint64_t id = (i % kBlockSize == 0) ? delta : prev + delta;
      if (id >= num_nodes || (i > 0 && id <= prev)) return false;
      prev = id;
      if (out_edge_offsets != nullptr) {
        uint64_t rank;
        if (!ReadVarint(p, end, &rank) ||
            rank >= out_edge_offsets[id + 1] - out_edge_offsets[id]) {
          return false;
        }
      }
    }
    if (p != end) return false;
  }
  return true;
}

}  // namespace

CompactGraph::~CompactGraph() { Reset(); }

CompactGraph::CompactGraph(CompactGraph&& other) noexcept {
  *this = std::move(other);
}

CompactGraph& CompactGraph::operator=(CompactGraph&& other) noexcept {
  if (this == &other) return *this;
  Reset();
  path_ = std::move(other.path_);
  mapping_ = std::exchange(other.mapping_, nullptr);
  mapped_size_ = std::exchange(other.mapped_size_, 0);
  num_nodes_ = std::exchange(other.num_nodes_, 0);
  num_edges_ = std::exchange(other.num_edges_, 0);
  model_ = other.model_;
  fingerprint_ = std::exchange(other.fingerprint_, 0);
  synthesize_in_weights_ = std::exchange(other.synthesize_in_weights_, false);
  constant_weight_ = std::exchange(other.constant_weight_, 0.0);
  out_edge_offsets_ = std::exchange(other.out_edge_offsets_, nullptr);
  out_byte_offsets_ = std::exchange(other.out_byte_offsets_, nullptr);
  out_blocks_ = std::exchange(other.out_blocks_, nullptr);
  weights_ = std::exchange(other.weights_, nullptr);
  in_edge_offsets_ = std::exchange(other.in_edge_offsets_, nullptr);
  in_byte_offsets_ = std::exchange(other.in_byte_offsets_, nullptr);
  in_blocks_ = std::exchange(other.in_blocks_, nullptr);
  multiplicities_ = std::exchange(other.multiplicities_, nullptr);
  return *this;
}

void CompactGraph::Reset() {
  if (mapping_ != nullptr) {
    ::munmap(mapping_, mapped_size_);
  }
  mapping_ = nullptr;
  mapped_size_ = 0;
  num_nodes_ = 0;
  num_edges_ = 0;
  fingerprint_ = 0;
  synthesize_in_weights_ = false;
  constant_weight_ = 0.0;
  out_edge_offsets_ = out_byte_offsets_ = in_edge_offsets_ =
      in_byte_offsets_ = nullptr;
  out_blocks_ = in_blocks_ = nullptr;
  weights_ = nullptr;
  multiplicities_ = nullptr;
  path_.clear();
}

GraphFileStatus CompactGraph::Open(const std::string& path, CompactGraph* out,
                                   std::string* error,
                                   const OpenOptions& options) {
  StopReason fault_reason = StopReason::kNone;
  if (FaultFire(faultsite::kGraphFileRead, &fault_reason)) {
    return Refuse(GraphFileStatus::kIoError, error,
                  "injected graph_file_read fault");
  }

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Refuse(errno == ENOENT ? GraphFileStatus::kMissing
                                  : GraphFileStatus::kIoError,
                  error, "cannot open " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Refuse(GraphFileStatus::kIoError, error, "cannot stat " + path);
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < imgrf::kHeaderBytes) {
    ::close(fd);
    return Refuse(GraphFileStatus::kCorrupt, error,
                  "truncated graph file (no full header): " + path);
  }

  if (FaultFire(faultsite::kGraphFileMap, &fault_reason)) {
    ::close(fd);
    return Refuse(GraphFileStatus::kIoError, error,
                  "injected graph_file_map fault");
  }
  void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (map == MAP_FAILED) {
    return Refuse(GraphFileStatus::kIoError, error, "mmap failed for " + path);
  }
  const uint8_t* bytes = static_cast<const uint8_t*>(map);
  auto refuse_mapped = [&](GraphFileStatus status, const std::string& msg) {
    ::munmap(map, file_size);
    return Refuse(status, error, msg + ": " + path);
  };

  // Header: magic/version first, then the checksum over everything before
  // the trailing checksum field, then the field contents.
  HeaderReader header{bytes, imgrf::kHeaderBytes};
  char magic[8];
  header.Raw(magic, sizeof magic);
  if (std::memcmp(magic, imgrf::kMagic, sizeof magic) != 0) {
    return refuse_mapped(GraphFileStatus::kCorrupt, "not an IMGRF01 file");
  }
  const uint32_t version = header.U32();
  if (version != imgrf::kVersion) {
    return refuse_mapped(GraphFileStatus::kCorrupt,
                         "unsupported graph file version");
  }
  const uint64_t stored_header_checksum = *reinterpret_cast<const uint64_t*>(
      bytes + imgrf::kHeaderBytes - sizeof(uint64_t));
  const uint64_t header_checksum =
      Fnv1a(bytes, imgrf::kHeaderBytes - sizeof(uint64_t), kFnvBasis);
  if (header_checksum != stored_header_checksum) {
    return refuse_mapped(GraphFileStatus::kCorrupt, "header checksum mismatch");
  }

  const uint32_t model_raw = header.U32();
  const NodeId num_nodes = header.U32();
  const uint32_t flags = header.U32();
  const uint64_t num_edges = header.U64();
  const uint64_t fingerprint = header.U64();
  uint64_t section_offset[imgrf::kNumSections];
  uint64_t section_size[imgrf::kNumSections];
  for (int s = 0; s < imgrf::kNumSections; ++s) {
    section_offset[s] = header.U64();
    section_size[s] = header.U64();
  }
  const uint64_t payload_checksum = header.U64();
  IMBENCH_CHECK(header.ok);
  if (model_raw > static_cast<uint32_t>(WeightModel::kLtParallel)) {
    return refuse_mapped(GraphFileStatus::kCorrupt, "unknown weight model tag");
  }
  // Every edge owns an 8-byte weight, so a larger count cannot fit the file;
  // refusing it first keeps the size products below from wrapping.
  if (num_edges > file_size / 8) {
    return refuse_mapped(GraphFileStatus::kCorrupt,
                         "edge count exceeds the file size");
  }

  // Section sanity: bounds within the file, 8-byte alignment for the typed
  // arrays, and sizes consistent with the header counts.
  const uint64_t n1 = static_cast<uint64_t>(num_nodes) + 1;
  const uint64_t expect_size[imgrf::kNumSections] = {
      n1 * 8, n1 * 8, section_size[imgrf::kOutBlocks], num_edges * 8,
      n1 * 8, n1 * 8, section_size[imgrf::kInBlocks],
      (flags & imgrf::kFlagHasMultiplicities) != 0 ? num_edges * 4 : 0};
  for (int s = 0; s < imgrf::kNumSections; ++s) {
    if (section_size[s] != expect_size[s]) {
      return refuse_mapped(GraphFileStatus::kCorrupt,
                           "section table out of bounds");
    }
    // An empty section is never read; its offset may be the aligned cursor
    // just past EOF (a trailing multiplicities section on a graph with no
    // parallel arcs), so only non-empty sections get bounds checks.
    if (section_size[s] == 0) continue;
    if (section_offset[s] % 8 != 0 ||
        section_offset[s] < imgrf::kHeaderBytes ||
        section_size[s] > file_size ||
        section_offset[s] > file_size - section_size[s]) {
      return refuse_mapped(GraphFileStatus::kCorrupt,
                           "section table out of bounds");
    }
  }

  uint64_t computed = kFnvBasis;
  for (int s = 0; s < imgrf::kNumSections; ++s) {
    computed = Fnv1a(bytes + section_offset[s], section_size[s], computed);
  }
  if (computed != payload_checksum) {
    return refuse_mapped(GraphFileStatus::kCorrupt,
                         "payload checksum mismatch (torn file?)");
  }
  if (options.has_expected_fingerprint &&
      fingerprint != options.expected_fingerprint) {
    return refuse_mapped(GraphFileStatus::kMismatch,
                         "graph fingerprint mismatch (foreign file)");
  }

  // Structural invariants the decoders rely on (monotone offsets ending at
  // the section sizes). O(n) scan of the offset arrays only.
  const uint64_t* out_eo =
      reinterpret_cast<const uint64_t*>(bytes + section_offset[0]);
  const uint64_t* out_bo =
      reinterpret_cast<const uint64_t*>(bytes + section_offset[1]);
  const uint64_t* in_eo =
      reinterpret_cast<const uint64_t*>(bytes + section_offset[4]);
  const uint64_t* in_bo =
      reinterpret_cast<const uint64_t*>(bytes + section_offset[5]);
  bool offsets_ok = out_eo[0] == 0 && out_bo[0] == 0 && in_eo[0] == 0 &&
                    in_bo[0] == 0 && out_eo[num_nodes] == num_edges &&
                    in_eo[num_nodes] == num_edges &&
                    out_bo[num_nodes] == section_size[imgrf::kOutBlocks] &&
                    in_bo[num_nodes] == section_size[imgrf::kInBlocks];
  for (NodeId u = 0; offsets_ok && u < num_nodes; ++u) {
    offsets_ok = out_eo[u] <= out_eo[u + 1] && out_bo[u] <= out_bo[u + 1] &&
                 in_eo[u] <= in_eo[u + 1] && in_bo[u] <= in_bo[u + 1];
  }
  if (!offsets_ok) {
    return refuse_mapped(GraphFileStatus::kCorrupt,
                         "malformed offset sections");
  }
  // The checksums only catch accidents; a crafted file can reseal them.
  // One pass over both block sections keeps a bad varint from steering a
  // decoder out of bounds later.
  if (!BlocksWellFormed(bytes + section_offset[imgrf::kOutBlocks], out_eo,
                        out_bo, num_nodes, nullptr) ||
      !BlocksWellFormed(bytes + section_offset[imgrf::kInBlocks], in_eo,
                        in_bo, num_nodes, out_eo)) {
    return refuse_mapped(GraphFileStatus::kCorrupt,
                         "malformed neighbor blocks");
  }

  out->Reset();
  out->path_ = path;
  out->mapping_ = map;
  out->mapped_size_ = file_size;
  out->num_nodes_ = num_nodes;
  out->num_edges_ = num_edges;
  out->model_ = static_cast<WeightModel>(model_raw);
  out->fingerprint_ = fingerprint;
  // In-weight synthesis (see DecodeIn): WC and LT-uniform store
  // 1.0/InDegree(v) per in-edge, IC-constant stores one global value, so
  // the decoder can reproduce the weights lane bit-for-bit from the offsets
  // alone instead of gathering m random doubles through the edge-id map.
  switch (out->model_) {
    case WeightModel::kWc:
    case WeightModel::kLtUniform:
      out->synthesize_in_weights_ = true;
      break;
    case WeightModel::kIcConstant:
      out->synthesize_in_weights_ = true;
      out->constant_weight_ =
          num_edges > 0 ? *reinterpret_cast<const double*>(
                              bytes + section_offset[imgrf::kWeights])
                        : 0.0;
      break;
    default:
      out->synthesize_in_weights_ = false;
      break;
  }
  out->out_edge_offsets_ = out_eo;
  out->out_byte_offsets_ = out_bo;
  out->out_blocks_ = bytes + section_offset[imgrf::kOutBlocks];
  out->weights_ =
      reinterpret_cast<const double*>(bytes + section_offset[imgrf::kWeights]);
  out->in_edge_offsets_ = in_eo;
  out->in_byte_offsets_ = in_bo;
  out->in_blocks_ = bytes + section_offset[imgrf::kInBlocks];
  out->multiplicities_ =
      (flags & imgrf::kFlagHasMultiplicities) != 0
          ? reinterpret_cast<const uint32_t*>(
                bytes + section_offset[imgrf::kMultiplicities])
          : nullptr;
  TraceAdd(options.trace, TraceCounter::kGraphBytesMapped, file_size);
  return GraphFileStatus::kOk;
}

void CompactGraph::DecodeOut(NodeId u, AdjScratch& scratch,
                             bool decode_weights) const {
  const uint64_t base = out_edge_offsets_[u];
  const uint32_t degree =
      static_cast<uint32_t>(out_edge_offsets_[u + 1] - base);
  scratch.nodes.resize(degree);
  const uint8_t* p = out_blocks_ + out_byte_offsets_[u];
  uint64_t prev = 0;
  for (uint32_t i = 0; i < degree; ++i) {
    uint64_t delta;
    p = DecodeVarint(p, &delta);
    prev = (i % kBlockSize == 0) ? delta : prev + delta;
    scratch.nodes[i] = static_cast<NodeId>(prev);
  }
  if (decode_weights) {
    scratch.weights.resize(degree);
    if (degree > 0) {
      std::memcpy(scratch.weights.data(), weights_ + base,
                  static_cast<size_t>(degree) * sizeof(double));
    }
  }
  scratch.blocks_decoded += (degree + kBlockSize - 1) / kBlockSize;
}

void CompactGraph::DecodeIn(NodeId v, AdjScratch& scratch, bool decode_weights,
                            bool decode_edge_ids) const {
  const uint64_t base = in_edge_offsets_[v];
  const uint32_t degree = static_cast<uint32_t>(in_edge_offsets_[v + 1] - base);
  scratch.nodes.resize(degree);
  // The gather through the rank->edge-id map costs two dependent random
  // loads per edge; skip it whenever the weights can be synthesized and
  // nobody asked for the edge ids (the sampler hot path).
  const bool gather = decode_edge_ids ||
                      (decode_weights && !synthesize_in_weights_);
  if (decode_weights) scratch.weights.resize(degree);
  if (gather) scratch.edge_ids.resize(degree);
  const uint8_t* p = in_blocks_ + in_byte_offsets_[v];
  uint64_t prev = 0;
  if (gather) {
    for (uint32_t i = 0; i < degree; ++i) {
      uint64_t delta, rank;
      p = DecodeVarint(p, &delta);
      p = DecodeVarint(p, &rank);
      prev = (i % kBlockSize == 0) ? delta : prev + delta;
      const NodeId source = static_cast<NodeId>(prev);
      scratch.nodes[i] = source;
      scratch.edge_ids[i] = out_edge_offsets_[source] + rank;
    }
  } else {
    // Sources-only decode: the rank varint is skipped, not accumulated.
    for (uint32_t i = 0; i < degree; ++i) {
      uint64_t delta;
      p = DecodeVarint(p, &delta);
      while (*p++ >= 0x80) {
      }
      prev = (i % kBlockSize == 0) ? delta : prev + delta;
      scratch.nodes[i] = static_cast<NodeId>(prev);
    }
  }
  if (decode_weights) {
    if (!synthesize_in_weights_) {
      for (uint32_t i = 0; i < degree; ++i) {
        scratch.weights[i] = weights_[scratch.edge_ids[i]];
      }
    } else if (model_ == WeightModel::kIcConstant) {
      for (uint32_t i = 0; i < degree; ++i) {
        scratch.weights[i] = constant_weight_;
      }
    } else {
      // Exactly AssignWeightedCascade's expression, so the synthesized
      // value is bit-identical to the stored lane.
      const double w = 1.0 / static_cast<double>(degree);
      for (uint32_t i = 0; i < degree; ++i) scratch.weights[i] = w;
    }
  }
  scratch.blocks_decoded += (degree + kBlockSize - 1) / kBlockSize;
}

double CompactGraph::InWeightSum(NodeId v, AdjScratch& scratch) const {
  DecodeIn(v, scratch);
  double sum = 0;
  for (const double w : scratch.weights) sum += w;
  return sum;
}

uint64_t CompactGraph::ResidentBytes() const {
  if (mapping_ == nullptr) return 0;
  const long page_long = ::sysconf(_SC_PAGESIZE);
  const uint64_t page = page_long > 0 ? static_cast<uint64_t>(page_long) : 4096;
  const uint64_t num_pages = (mapped_size_ + page - 1) / page;
  std::vector<unsigned char> vec(num_pages);
  if (::mincore(mapping_, mapped_size_, vec.data()) != 0) return 0;
  uint64_t resident = 0;
  for (const unsigned char c : vec) resident += (c & 1u);
  // mincore counts whole pages; clamp so a fully-resident file never
  // reports more resident than mapped bytes.
  return std::min(resident * page, mapped_size_);
}

void CompactGraph::DropPages() const {
  if (mapping_ == nullptr) return;
  ::madvise(mapping_, mapped_size_, MADV_DONTNEED);
}

}  // namespace imbench
