#include "graph/graph.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>

#include "obs/span.hpp"
#include "support/error.hpp"

namespace proof {

// Lazy structural index.  Rebuilt as a whole on first query after a
// structural mutation; guarded by `mutex` with double-checked atomic validity
// flags so warmed-up const lookups are lock-free.
struct Graph::Index {
  std::mutex mutex;
  std::atomic<bool> edges_valid{false};
  std::atomic<bool> topo_valid{false};
  std::atomic<uint64_t> generation{0};
  bool edges_built_once = false;  ///< for the rebuild-after-invalidation counter
  bool topo_built_once = false;

  // Node name (pool id) -> node id; kInvalidNode for non-node names.
  std::vector<NodeId> node_of_name;
  // Per-node interned input/output tensor ids (CSR: offsets + flat arrays).
  std::vector<uint32_t> in_offsets;   ///< size num_nodes + 1
  std::vector<TensorId> in_ids;
  std::vector<uint32_t> out_offsets;  ///< size num_nodes + 1
  std::vector<TensorId> out_ids;
  // Interned op types and the per-type node buckets (CSR over OpTypeId).
  StringPool op_types;
  std::vector<OpTypeId> node_op_type;  ///< per node
  std::vector<uint32_t> type_offsets;  ///< size num_op_types + 1
  std::vector<NodeId> type_list;
  // Producer / consumers over the TensorId space.  consumer_list holds one
  // entry per *use* (a node consuming a tensor twice appears twice), matching
  // the multiplicity the Kahn in-degree bookkeeping relies on.
  std::vector<NodeId> producer_of;         ///< size = pool size at build time
  std::vector<uint32_t> consumer_offsets;  ///< size = pool size + 1
  std::vector<NodeId> consumer_list;
  // Cached topological order.
  std::vector<NodeId> topo;
};

// --- lifecycle ---------------------------------------------------------------

Graph::Graph() { init_index(); }

Graph::Graph(std::string name) : name_(std::move(name)) { init_index(); }

Graph::~Graph() = default;

void Graph::init_index() { index_ = std::make_unique<Index>(); }

Graph::Graph(const Graph& other)
    : name_(other.name_),
      nodes_(other.nodes_),
      tensors_(other.tensors_),
      inputs_(other.inputs_),
      outputs_(other.outputs_) {
  init_index();
  rebuild_eager_tables();
}

Graph& Graph::operator=(const Graph& other) {
  if (this == &other) {
    return *this;
  }
  name_ = other.name_;
  nodes_ = other.nodes_;
  tensors_ = other.tensors_;
  inputs_ = other.inputs_;
  outputs_ = other.outputs_;
  init_index();
  rebuild_eager_tables();
  return *this;
}

Graph::Graph(Graph&& other) noexcept
    : name_(std::move(other.name_)),
      nodes_(std::move(other.nodes_)),
      tensors_(std::move(other.tensors_)),
      inputs_(std::move(other.inputs_)),
      outputs_(std::move(other.outputs_)),
      names_(std::move(other.names_)),
      desc_of_(std::move(other.desc_of_)),
      is_output_(std::move(other.is_output_)),
      index_(std::move(other.index_)) {
  // Leave the source a valid empty graph rather than a nullptr-index husk.
  other.init_index();
}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this == &other) {
    return *this;
  }
  name_ = std::move(other.name_);
  nodes_ = std::move(other.nodes_);
  tensors_ = std::move(other.tensors_);
  inputs_ = std::move(other.inputs_);
  outputs_ = std::move(other.outputs_);
  names_ = std::move(other.names_);
  desc_of_ = std::move(other.desc_of_);
  is_output_ = std::move(other.is_output_);
  index_ = std::move(other.index_);
  other.init_index();
  return *this;
}

// --- eager tables ------------------------------------------------------------

TensorId Graph::intern_name(std::string_view name) const {
  const TensorId id = names_.intern(name);
  if (static_cast<size_t>(id) >= desc_of_.size()) {
    desc_of_.resize(static_cast<size_t>(id) + 1, nullptr);
    is_output_.resize(static_cast<size_t>(id) + 1, 0);
  }
  return id;
}

void Graph::rebuild_eager_tables() {
  names_.clear();
  desc_of_.clear();
  is_output_.clear();
  for (auto& [tensor_name, desc] : tensors_) {
    desc_of_[static_cast<size_t>(intern_name(tensor_name))] = &desc;
  }
  for (const Node& n : nodes_) {
    intern_name(n.name);
    for (const std::string& in : n.inputs) {
      intern_name(in);
    }
    for (const std::string& out : n.outputs) {
      intern_name(out);
    }
  }
  for (const std::string& in : inputs_) {
    intern_name(in);
  }
  for (const std::string& out : outputs_) {
    is_output_[static_cast<size_t>(intern_name(out))] = 1;
  }
}

// --- construction ------------------------------------------------------------

NodeId Graph::add_node(Node node) {
  PROOF_CHECK(!node.name.empty(), "node must have a name");
  PROOF_CHECK(!node.op_type.empty(), "node '" << node.name << "' must have an op_type");
  intern_name(node.name);
  for (const std::string& in : node.inputs) {
    intern_name(in);
  }
  for (const std::string& out : node.outputs) {
    const TensorId tid = intern_name(out);
    if (desc_of_[static_cast<size_t>(tid)] == nullptr) {
      TensorDesc desc;
      desc.name = out;
      const auto it = tensors_.emplace(out, std::move(desc)).first;
      desc_of_[static_cast<size_t>(tid)] = &it->second;
    }
  }
  nodes_.push_back(std::move(node));
  invalidate_structure();
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Graph::set_tensor(TensorDesc desc) {
  PROOF_CHECK(!desc.name.empty(), "tensor must have a name");
  const TensorId tid = intern_name(desc.name);
  std::string key = desc.name;
  const auto it = tensors_.insert_or_assign(std::move(key), std::move(desc)).first;
  // std::map nodes are address-stable, so this pointer survives unrelated
  // inserts; overwriting an existing entry reuses the node (and the pointer).
  desc_of_[static_cast<size_t>(tid)] = &it->second;
}

void Graph::add_param(const std::string& name, DType dtype, Shape shape) {
  TensorDesc desc;
  desc.name = name;
  desc.dtype = dtype;
  desc.shape = std::move(shape);
  desc.is_param = true;
  set_tensor(std::move(desc));
}

void Graph::add_input(const std::string& tensor_name) {
  PROOF_CHECK(std::find(inputs_.begin(), inputs_.end(), tensor_name) == inputs_.end(),
              "duplicate graph input '" << tensor_name << "'");
  intern_name(tensor_name);
  inputs_.push_back(tensor_name);
}

void Graph::add_output(const std::string& tensor_name) {
  PROOF_CHECK(std::find(outputs_.begin(), outputs_.end(), tensor_name) == outputs_.end(),
              "duplicate graph output '" << tensor_name << "'");
  is_output_[static_cast<size_t>(intern_name(tensor_name))] = 1;
  outputs_.push_back(tensor_name);
}

// --- invalidation / rebuild --------------------------------------------------

void Graph::invalidate_structure() {
  Index& ix = *index_;
  ix.edges_valid.store(false, std::memory_order_release);
  ix.topo_valid.store(false, std::memory_order_release);
  ix.generation.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Graph::index_generation() const {
  return index_->generation.load(std::memory_order_relaxed);
}

void Graph::rebuild_edges(Index& ix) const {
  PROOF_SPAN("graph.index.build");
  const size_t interned_before = names_.size();
  const size_t n = nodes_.size();

  ix.in_offsets.assign(n + 1, 0);
  ix.out_offsets.assign(n + 1, 0);
  ix.in_ids.clear();
  ix.out_ids.clear();
  ix.op_types.clear();
  ix.node_op_type.assign(n, kInvalidOpType);

  std::vector<TensorId> name_of_node(n, kInvalidTensor);
  for (size_t i = 0; i < n; ++i) {
    const Node& nd = nodes_[i];
    name_of_node[i] = intern_name(nd.name);
    ix.node_op_type[i] = ix.op_types.intern(nd.op_type);
    for (const std::string& in : nd.inputs) {
      ix.in_ids.push_back(intern_name(in));
    }
    ix.in_offsets[i + 1] = static_cast<uint32_t>(ix.in_ids.size());
    for (const std::string& out : nd.outputs) {
      ix.out_ids.push_back(intern_name(out));
    }
    ix.out_offsets[i + 1] = static_cast<uint32_t>(ix.out_ids.size());
  }

  const size_t num_ids = names_.size();
  ix.node_of_name.assign(num_ids, kInvalidNode);
  for (size_t i = 0; i < n; ++i) {
    NodeId& slot = ix.node_of_name[static_cast<size_t>(name_of_node[i])];
    if (slot != kInvalidNode) {
      throw ModelError("duplicate node name '" + nodes_[i].name + "'");
    }
    slot = static_cast<NodeId>(i);
  }

  // Producer: last writer wins, matching the seed's map-assignment semantics.
  ix.producer_of.assign(num_ids, kInvalidNode);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t o = ix.out_offsets[i]; o < ix.out_offsets[i + 1]; ++o) {
      ix.producer_of[static_cast<size_t>(ix.out_ids[o])] = static_cast<NodeId>(i);
    }
  }

  // Consumers CSR, in node order (two-pass count + fill).
  ix.consumer_offsets.assign(num_ids + 1, 0);
  for (const TensorId tid : ix.in_ids) {
    ++ix.consumer_offsets[static_cast<size_t>(tid) + 1];
  }
  for (size_t t = 0; t < num_ids; ++t) {
    ix.consumer_offsets[t + 1] += ix.consumer_offsets[t];
  }
  ix.consumer_list.assign(ix.in_ids.size(), kInvalidNode);
  {
    std::vector<uint32_t> cursor(ix.consumer_offsets.begin(),
                                 ix.consumer_offsets.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t o = ix.in_offsets[i]; o < ix.in_offsets[i + 1]; ++o) {
        const size_t tid = static_cast<size_t>(ix.in_ids[o]);
        ix.consumer_list[cursor[tid]++] = static_cast<NodeId>(i);
      }
    }
  }

  // Per-op-type node buckets, in node order.
  const size_t num_types = ix.op_types.size();
  ix.type_offsets.assign(num_types + 1, 0);
  for (const OpTypeId t : ix.node_op_type) {
    ++ix.type_offsets[static_cast<size_t>(t) + 1];
  }
  for (size_t t = 0; t < num_types; ++t) {
    ix.type_offsets[t + 1] += ix.type_offsets[t];
  }
  ix.type_list.assign(n, kInvalidNode);
  {
    std::vector<uint32_t> cursor(ix.type_offsets.begin(), ix.type_offsets.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      ix.type_list[cursor[static_cast<size_t>(ix.node_op_type[i])]++] =
          static_cast<NodeId>(i);
    }
  }

  PROOF_COUNT("graph.index.builds", 1);
  if (ix.edges_built_once) {
    PROOF_COUNT("graph.index.rebuilds", 1);
  }
  ix.edges_built_once = true;
  PROOF_COUNT("graph.intern.strings",
              static_cast<int64_t>(names_.size() - interned_before));
}

const Graph::Index& Graph::ensure_edges() const {
  Index& ix = *index_;
  if (ix.edges_valid.load(std::memory_order_acquire)) {
    return ix;
  }
  std::lock_guard<std::mutex> lock(ix.mutex);
  if (!ix.edges_valid.load(std::memory_order_relaxed)) {
    rebuild_edges(ix);
    ix.edges_valid.store(true, std::memory_order_release);
  }
  return ix;
}

void Graph::rebuild_topo(Index& ix) const {
  PROOF_SPAN("graph.topo.build");
  // Kahn's algorithm over the CSR adjacency.  FIFO via a head cursor: the pop
  // order equals the push order, so `order` doubles as the ready queue.  The
  // resulting sequence is identical to the seed's deque-based walk.
  const size_t n = nodes_.size();
  std::vector<int32_t> in_degree(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t o = ix.in_offsets[i]; o < ix.in_offsets[i + 1]; ++o) {
      if (ix.producer_of[static_cast<size_t>(ix.in_ids[o])] != kInvalidNode) {
        ++in_degree[i];
      }
    }
  }
  std::vector<NodeId> order;
  order.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (in_degree[i] == 0) {
      order.push_back(static_cast<NodeId>(i));
    }
  }
  for (size_t head = 0; head < order.size(); ++head) {
    const size_t id = static_cast<size_t>(order[head]);
    for (uint32_t o = ix.out_offsets[id]; o < ix.out_offsets[id + 1]; ++o) {
      const size_t tid = static_cast<size_t>(ix.out_ids[o]);
      for (uint32_t c = ix.consumer_offsets[tid]; c < ix.consumer_offsets[tid + 1];
           ++c) {
        const NodeId consumer = ix.consumer_list[c];
        if (--in_degree[static_cast<size_t>(consumer)] == 0) {
          order.push_back(consumer);
        }
      }
    }
  }
  if (order.size() != n) {
    throw ModelError("graph '" + name_ + "' contains a cycle");
  }
  ix.topo = std::move(order);
  PROOF_COUNT("graph.topo.builds", 1);
  if (ix.topo_built_once) {
    PROOF_COUNT("graph.topo.rebuilds", 1);
  }
  ix.topo_built_once = true;
}

const Graph::Index& Graph::ensure_topo() const {
  Index& ix = const_cast<Index&>(ensure_edges());
  if (ix.topo_valid.load(std::memory_order_acquire)) {
    return ix;
  }
  std::lock_guard<std::mutex> lock(ix.mutex);
  if (!ix.topo_valid.load(std::memory_order_relaxed)) {
    rebuild_topo(ix);
    ix.topo_valid.store(true, std::memory_order_release);
  }
  return ix;
}

void Graph::warm_indices() const { (void)ensure_topo(); }

Graph Graph::clone_warm() const {
  Graph g;
  g.name_ = name_;
  {
    PROOF_SPAN("graph.clone.nodes");
    g.nodes_ = nodes_;
  }
  {
    PROOF_SPAN("graph.clone.tensors");
    g.tensors_ = tensors_;
  }
  g.inputs_ = inputs_;
  g.outputs_ = outputs_;
  // Eager tables: clone the interner id-for-id and re-point the descriptor
  // table at the copy's own tensor map (map nodes are address-stable).
  // Interned ids cached against the source (plan-cache kernel boundary ids)
  // stay valid in the clone.
  {
    PROOF_SPAN("graph.clone.pool");
    g.names_ = names_.clone();
  }
  g.is_output_ = is_output_;
  {
    PROOF_SPAN("graph.clone.descs");
    g.desc_of_.assign(desc_of_.size(), nullptr);
    for (auto& [tensor_name, desc] : g.tensors_) {
      g.desc_of_[static_cast<size_t>(g.names_.find(tensor_name))] = &desc;
    }
  }
  warm_indices();
  // Lazy index: every id in the source's CSR arrays is valid verbatim in the
  // copy because the cloned pool preserved the numbering.
  const Index& src = *index_;
  Index& dst = *g.index_;
  dst.node_of_name = src.node_of_name;
  dst.in_offsets = src.in_offsets;
  dst.in_ids = src.in_ids;
  dst.out_offsets = src.out_offsets;
  dst.out_ids = src.out_ids;
  dst.op_types = src.op_types.clone();
  dst.node_op_type = src.node_op_type;
  dst.type_offsets = src.type_offsets;
  dst.type_list = src.type_list;
  dst.producer_of = src.producer_of;
  dst.consumer_offsets = src.consumer_offsets;
  dst.consumer_list = src.consumer_list;
  dst.topo = src.topo;
  dst.edges_built_once = true;
  dst.topo_built_once = true;
  dst.edges_valid.store(true, std::memory_order_release);
  dst.topo_valid.store(true, std::memory_order_release);
  return g;
}

// --- node / tensor accessors -------------------------------------------------

const Node& Graph::node(NodeId id) const {
  PROOF_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size(), "bad node id " << id);
  return nodes_[static_cast<size_t>(id)];
}

Node& Graph::mutable_node(NodeId id) {
  PROOF_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size(), "bad node id " << id);
  invalidate_structure();
  return nodes_[static_cast<size_t>(id)];
}

AttrMap& Graph::mutable_attrs(NodeId id) {
  PROOF_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size(), "bad node id " << id);
  return nodes_[static_cast<size_t>(id)].attrs;
}

bool Graph::has_tensor(std::string_view name) const {
  const TensorId id = names_.find(name);
  return id != kInvalidTensor && desc_of_[static_cast<size_t>(id)] != nullptr;
}

const TensorDesc& Graph::tensor(std::string_view name) const {
  const TensorId id = names_.find(name);
  const TensorDesc* desc =
      id == kInvalidTensor ? nullptr : desc_of_[static_cast<size_t>(id)];
  PROOF_CHECK(desc != nullptr, "unknown tensor '" << name << "'");
  return *desc;
}

TensorDesc& Graph::tensor(std::string_view name) {
  return const_cast<TensorDesc&>(std::as_const(*this).tensor(name));
}

TensorId Graph::tensor_id(std::string_view name) const { return names_.find(name); }

std::string_view Graph::tensor_name(TensorId id) const { return names_.view(id); }

size_t Graph::num_tensor_ids() const { return names_.size(); }

bool Graph::has_tensor(TensorId id) const {
  return id >= 0 && static_cast<size_t>(id) < desc_of_.size() &&
         desc_of_[static_cast<size_t>(id)] != nullptr;
}

const TensorDesc& Graph::tensor(TensorId id) const {
  PROOF_CHECK(has_tensor(id), "unknown tensor id " << id);
  return *desc_of_[static_cast<size_t>(id)];
}

bool Graph::tensor_is_param(TensorId id) const {
  if (id < 0 || static_cast<size_t>(id) >= desc_of_.size()) {
    return false;
  }
  const TensorDesc* desc = desc_of_[static_cast<size_t>(id)];
  return desc != nullptr && desc->is_param;
}

bool Graph::is_graph_output(TensorId id) const {
  return id >= 0 && static_cast<size_t>(id) < is_output_.size() &&
         is_output_[static_cast<size_t>(id)] != 0;
}

// --- edge queries ------------------------------------------------------------

NodeId Graph::producer(TensorId id) const {
  if (id < 0) {
    return kInvalidNode;
  }
  const Index& ix = ensure_edges();
  return static_cast<size_t>(id) < ix.producer_of.size()
             ? ix.producer_of[static_cast<size_t>(id)]
             : kInvalidNode;
}

NodeId Graph::producer(std::string_view tensor_name) const {
  return producer(names_.find(tensor_name));
}

std::span<const NodeId> Graph::consumers(TensorId id) const {
  if (id < 0) {
    return {};
  }
  const Index& ix = ensure_edges();
  if (static_cast<size_t>(id) + 1 >= ix.consumer_offsets.size()) {
    return {};
  }
  const uint32_t begin = ix.consumer_offsets[static_cast<size_t>(id)];
  const uint32_t end = ix.consumer_offsets[static_cast<size_t>(id) + 1];
  return {ix.consumer_list.data() + begin, static_cast<size_t>(end - begin)};
}

std::span<const NodeId> Graph::consumers(std::string_view tensor_name) const {
  return consumers(names_.find(tensor_name));
}

std::span<const TensorId> Graph::node_input_ids(NodeId id) const {
  PROOF_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size(), "bad node id " << id);
  const Index& ix = ensure_edges();
  const uint32_t begin = ix.in_offsets[static_cast<size_t>(id)];
  const uint32_t end = ix.in_offsets[static_cast<size_t>(id) + 1];
  return {ix.in_ids.data() + begin, static_cast<size_t>(end - begin)};
}

std::span<const TensorId> Graph::node_output_ids(NodeId id) const {
  PROOF_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size(), "bad node id " << id);
  const Index& ix = ensure_edges();
  const uint32_t begin = ix.out_offsets[static_cast<size_t>(id)];
  const uint32_t end = ix.out_offsets[static_cast<size_t>(id) + 1];
  return {ix.out_ids.data() + begin, static_cast<size_t>(end - begin)};
}

OpTypeId Graph::op_type_id(NodeId id) const {
  PROOF_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size(), "bad node id " << id);
  return ensure_edges().node_op_type[static_cast<size_t>(id)];
}

OpTypeId Graph::op_type_id(std::string_view op_type) const {
  return ensure_edges().op_types.find(op_type);
}

NodeId Graph::find_node(std::string_view node_name) const {
  const Index& ix = ensure_edges();
  const TensorId id = names_.find(node_name);
  if (id == kInvalidTensor || static_cast<size_t>(id) >= ix.node_of_name.size()) {
    return kInvalidNode;
  }
  return ix.node_of_name[static_cast<size_t>(id)];
}

std::span<const NodeId> Graph::nodes_of_type(std::string_view op_type) const {
  const Index& ix = ensure_edges();
  const OpTypeId t = ix.op_types.find(op_type);
  if (t == kInvalidOpType) {
    return {};
  }
  const uint32_t begin = ix.type_offsets[static_cast<size_t>(t)];
  const uint32_t end = ix.type_offsets[static_cast<size_t>(t) + 1];
  return {ix.type_list.data() + begin, static_cast<size_t>(end - begin)};
}

// --- analysis primitives -----------------------------------------------------

const std::vector<NodeId>& Graph::topo_order() const { return ensure_topo().topo; }

std::optional<std::vector<NodeId>> Graph::subgraph_by_io(
    const std::vector<std::string>& input_tensors,
    const std::vector<std::string>& output_tensors) const {
  std::vector<TensorId> in_ids;
  in_ids.reserve(input_tensors.size());
  for (const std::string& in : input_tensors) {
    const TensorId id = names_.find(in);
    if (id != kInvalidTensor) {
      in_ids.push_back(id);  // unknown names can't stop any known edge
    }
  }
  std::vector<TensorId> out_ids;
  out_ids.reserve(output_tensors.size());
  for (const std::string& out : output_tensors) {
    const TensorId id = names_.find(out);
    if (id == kInvalidTensor) {
      return std::nullopt;  // output is not produced by any node
    }
    out_ids.push_back(id);
  }
  return subgraph_by_io_ids(in_ids, out_ids);
}

std::optional<std::vector<NodeId>> Graph::subgraph_by_io_ids(
    std::span<const TensorId> input_tensors,
    std::span<const TensorId> output_tensors) const {
  const Index& ix = ensure_edges();
  std::vector<uint8_t> stop(names_.size(), 0);
  for (const TensorId t : input_tensors) {
    if (t >= 0 && static_cast<size_t>(t) < stop.size()) {
      stop[static_cast<size_t>(t)] = 1;
    }
  }
  std::vector<uint8_t> in_set(nodes_.size(), 0);
  std::vector<NodeId> frontier;  // FIFO via head cursor
  for (const TensorId t : output_tensors) {
    const NodeId p = t >= 0 && static_cast<size_t>(t) < ix.producer_of.size()
                         ? ix.producer_of[static_cast<size_t>(t)]
                         : kInvalidNode;
    if (p == kInvalidNode) {
      return std::nullopt;  // output is not produced by any node
    }
    if (!in_set[static_cast<size_t>(p)]) {
      in_set[static_cast<size_t>(p)] = 1;
      frontier.push_back(p);
    }
  }
  for (size_t head = 0; head < frontier.size(); ++head) {
    const size_t id = static_cast<size_t>(frontier[head]);
    for (uint32_t o = ix.in_offsets[id]; o < ix.in_offsets[id + 1]; ++o) {
      const size_t tid = static_cast<size_t>(ix.in_ids[o]);
      if (stop[tid]) {
        continue;  // boundary input: stop the walk here
      }
      const TensorDesc* desc = desc_of_[tid];
      if (desc != nullptr && desc->is_param) {
        continue;  // params live inside the subgraph
      }
      const NodeId p = ix.producer_of[tid];
      if (p == kInvalidNode) {
        // Reached a graph input / external tensor that is not in the declared
        // boundary: the requested subgraph does not exist.
        return std::nullopt;
      }
      if (!in_set[static_cast<size_t>(p)]) {
        in_set[static_cast<size_t>(p)] = 1;
        frontier.push_back(p);
      }
    }
  }
  std::vector<NodeId> result;
  result.reserve(frontier.size());
  for (size_t i = 0; i < in_set.size(); ++i) {
    if (in_set[i]) {
      result.push_back(static_cast<NodeId>(i));
    }
  }
  return result;
}

Graph::Boundary Graph::boundary(const std::vector<NodeId>& node_set) const {
  const BoundaryIds ids = boundary_ids(node_set);
  Boundary result;
  result.inputs.reserve(ids.inputs.size());
  for (const TensorId t : ids.inputs) {
    result.inputs.push_back(names_.str(t));
  }
  result.outputs.reserve(ids.outputs.size());
  for (const TensorId t : ids.outputs) {
    result.outputs.push_back(names_.str(t));
  }
  result.params.reserve(ids.params.size());
  for (const TensorId t : ids.params) {
    result.params.push_back(names_.str(t));
  }
  return result;
}

Graph::BoundaryIds Graph::boundary_ids(std::span<const NodeId> node_set) const {
  const Index& ix = ensure_edges();
  std::vector<uint8_t> member(nodes_.size(), 0);
  std::vector<uint8_t> produced_inside(names_.size(), 0);
  for (const NodeId id : node_set) {
    PROOF_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size(),
                "bad node id " << id);
    member[static_cast<size_t>(id)] = 1;
    for (uint32_t o = ix.out_offsets[static_cast<size_t>(id)];
         o < ix.out_offsets[static_cast<size_t>(id) + 1]; ++o) {
      produced_inside[static_cast<size_t>(ix.out_ids[o])] = 1;
    }
  }
  BoundaryIds result;
  // Inputs and params are disjoint categories, so one seen-set suffices.
  std::vector<uint8_t> seen(names_.size(), 0);
  for (const NodeId id : node_set) {
    for (uint32_t o = ix.in_offsets[static_cast<size_t>(id)];
         o < ix.in_offsets[static_cast<size_t>(id) + 1]; ++o) {
      const size_t tid = static_cast<size_t>(ix.in_ids[o]);
      if (produced_inside[tid] || seen[tid]) {
        continue;
      }
      seen[tid] = 1;
      const TensorDesc* desc = desc_of_[tid];
      if (desc != nullptr && desc->is_param) {
        result.params.push_back(static_cast<TensorId>(tid));
      } else {
        result.inputs.push_back(static_cast<TensorId>(tid));
      }
    }
  }
  for (const NodeId id : node_set) {
    for (uint32_t o = ix.out_offsets[static_cast<size_t>(id)];
         o < ix.out_offsets[static_cast<size_t>(id) + 1]; ++o) {
      const size_t tid = static_cast<size_t>(ix.out_ids[o]);
      bool external = is_output_[tid] != 0;
      if (!external) {
        for (uint32_t c = ix.consumer_offsets[tid]; c < ix.consumer_offsets[tid + 1];
             ++c) {
          if (!member[static_cast<size_t>(ix.consumer_list[c])]) {
            external = true;
            break;
          }
        }
      }
      if (external) {
        result.outputs.push_back(static_cast<TensorId>(tid));
      }
    }
  }
  return result;
}

// --- validation / stats ------------------------------------------------------

void Graph::validate() const {
  (void)ensure_edges();  // also checks duplicate node names
  for (const Node& n : nodes_) {
    for (const std::string& in : n.inputs) {
      const bool resolvable = has_tensor(in) || producer(in) != kInvalidNode ||
                              std::find(inputs_.begin(), inputs_.end(), in) != inputs_.end();
      if (!resolvable) {
        throw ModelError("node '" + n.name + "' consumes undeclared tensor '" + in + "'");
      }
    }
  }
  for (const std::string& out : outputs_) {
    if (producer(out) == kInvalidNode) {
      throw ModelError("graph output '" + out + "' has no producer");
    }
  }
  (void)topo_order();  // throws on cycles
}

int64_t Graph::param_bytes() const {
  int64_t total = 0;
  for (const auto& [tensor_name, desc] : tensors_) {
    if (desc.is_param) {
      total += desc.size_bytes();
    }
  }
  return total;
}

int64_t Graph::param_count() const {
  int64_t total = 0;
  for (const auto& [tensor_name, desc] : tensors_) {
    if (desc.is_param) {
      total += desc.numel();
    }
  }
  return total;
}

}  // namespace proof
