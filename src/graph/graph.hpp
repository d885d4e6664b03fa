// Model graph IR.
//
// A Graph mirrors the information PRoof extracts from an ONNX file: a list of
// operator nodes, a tensor table (shapes/dtypes, which tensors are params),
// and the designated model inputs/outputs.  The graph also provides the
// search primitives the Optimized Analyze Representation relies on, most
// importantly subgraph extraction by boundary tensors
// (`get_subgraph_ops_by_io`, Figure 2 of the paper).
//
// Lookup layer: every tensor and node name is interned into a StringPool on
// first sight, so the analysis hot path (fusion, lowering, layer mapping,
// Equation-1 memory prediction) works on dense int32 ids instead of
// std::string map keys.  Two tiers of index exist:
//   * eager — the name pool, the TensorId -> TensorDesc table and the
//     graph-output flags are maintained incrementally on every mutation and
//     are always current;
//   * lazy  — producer-of, the CSR consumers adjacency, node-by-name,
//     per-type node buckets and the cached topological order are rebuilt on
//     first query after a structural mutation.  The only structural mutators
//     are add_node() and mutable_node(); node() and nodes() are const reads
//     and mutable_attrs() edits unindexed attributes only, so none of them
//     invalidates anything.  Rebuilds are serialized behind a mutex with
//     double-checked atomic validity flags, so concurrent *const* lookups on
//     a shared graph are safe once no thread mutates it (call warm_indices()
//     before fanning a graph out to a thread pool to keep the hot path
//     lock-free).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/node.hpp"
#include "graph/string_pool.hpp"
#include "tensor/tensor.hpp"

namespace proof {

/// Dense id of an interned tensor (or node) name within one Graph.
using TensorId = int32_t;
inline constexpr TensorId kInvalidTensor = -1;

/// Dense id of an interned operator type within one Graph.
using OpTypeId = int32_t;
inline constexpr OpTypeId kInvalidOpType = -1;

class Graph {
 public:
  Graph();
  explicit Graph(std::string name);
  ~Graph();

  // Copying resets the lookup indexes on the copy (they hold views into the
  // source's string pool); moving transfers them intact.
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // --- construction -------------------------------------------------------

  /// Adds a node; all of its output tensors get placeholder descs if unknown.
  NodeId add_node(Node node);

  /// Declares/overwrites a tensor description.
  void set_tensor(TensorDesc desc);

  /// Declares a model parameter (weight) tensor.
  void add_param(const std::string& name, DType dtype, Shape shape);

  /// Marks graph-level inputs/outputs.
  void add_input(const std::string& tensor_name);
  void add_output(const std::string& tensor_name);

  // --- lookup -------------------------------------------------------------

  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] const Node& node(NodeId id) const;
  /// Write access for renaming/rewiring a node: invalidates the lazy indexes.
  [[nodiscard]] Node& mutable_node(NodeId id);
  /// Write access to a node's attributes only.  Attributes are not indexed,
  /// so this invalidates nothing.
  [[nodiscard]] AttrMap& mutable_attrs(NodeId id);
  [[nodiscard]] size_t num_nodes() const { return nodes_.size(); }

  /// Ordered tensor table (deterministic iteration for serialization).
  /// Lookups go through the interned-name index, never through this map.
  using TensorMap = std::map<std::string, TensorDesc, std::less<>>;

  [[nodiscard]] bool has_tensor(std::string_view name) const;
  [[nodiscard]] const TensorDesc& tensor(std::string_view name) const;
  [[nodiscard]] TensorDesc& tensor(std::string_view name);
  [[nodiscard]] const TensorMap& tensors() const { return tensors_; }

  [[nodiscard]] const std::vector<std::string>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<std::string>& outputs() const { return outputs_; }

  // --- interned-id lookup (the analysis hot path) --------------------------

  /// Id of an interned tensor/node name; kInvalidTensor when never seen.
  [[nodiscard]] TensorId tensor_id(std::string_view name) const;
  /// Name behind a tensor id.
  [[nodiscard]] std::string_view tensor_name(TensorId id) const;
  /// Number of interned name ids (bound for id-indexed scratch tables).
  [[nodiscard]] size_t num_tensor_ids() const;

  [[nodiscard]] bool has_tensor(TensorId id) const;
  [[nodiscard]] const TensorDesc& tensor(TensorId id) const;
  /// True when the tensor exists and is a model parameter.
  [[nodiscard]] bool tensor_is_param(TensorId id) const;
  /// True when the tensor is a declared graph output.
  [[nodiscard]] bool is_graph_output(TensorId id) const;

  /// Node that produces the tensor, or kInvalidNode for inputs/params.
  [[nodiscard]] NodeId producer(TensorId id) const;
  [[nodiscard]] NodeId producer(std::string_view tensor_name) const;

  /// Nodes consuming the tensor (in node order), as a view into the CSR
  /// adjacency — no per-query allocation.  Stable until the next mutation.
  [[nodiscard]] std::span<const NodeId> consumers(TensorId id) const;
  [[nodiscard]] std::span<const NodeId> consumers(std::string_view tensor_name) const;

  /// Interned input/output tensor ids of a node (index-cached).
  [[nodiscard]] std::span<const TensorId> node_input_ids(NodeId id) const;
  [[nodiscard]] std::span<const TensorId> node_output_ids(NodeId id) const;

  /// Interned op-type ids: per node, and by name (kInvalidOpType if absent).
  [[nodiscard]] OpTypeId op_type_id(NodeId id) const;
  [[nodiscard]] OpTypeId op_type_id(std::string_view op_type) const;

  /// Finds a node by its unique name; returns kInvalidNode when absent.
  [[nodiscard]] NodeId find_node(std::string_view node_name) const;

  /// All node ids with the given op_type, in node order (bucketed index).
  [[nodiscard]] std::span<const NodeId> nodes_of_type(std::string_view op_type) const;

  // --- analysis primitives --------------------------------------------------

  /// Topological order of node ids; throws ModelError on cycles.  Cached —
  /// the reference stays valid until the next structural mutation.
  [[nodiscard]] const std::vector<NodeId>& topo_order() const;

  /// Returns the set of nodes forming the subgraph whose external inputs are
  /// covered by `input_tensors` and which produces all `output_tensors`
  /// (paper interface `get_subgraph_ops_by_io`).  Walks backwards from the
  /// outputs over the cached adjacency, stopping at the given inputs /
  /// params / graph inputs.  Returns std::nullopt when the walk escapes the
  /// boundary (no such subgraph).
  [[nodiscard]] std::optional<std::vector<NodeId>> subgraph_by_io(
      const std::vector<std::string>& input_tensors,
      const std::vector<std::string>& output_tensors) const;
  [[nodiscard]] std::optional<std::vector<NodeId>> subgraph_by_io_ids(
      std::span<const TensorId> input_tensors,
      std::span<const TensorId> output_tensors) const;

  /// Boundary tensors of a node set: external inputs (consumed but not
  /// produced inside, excluding params unless `include_params`) and external
  /// outputs (produced inside and consumed outside or graph outputs).
  struct Boundary {
    std::vector<std::string> inputs;
    std::vector<std::string> outputs;
    std::vector<std::string> params;
  };
  [[nodiscard]] Boundary boundary(const std::vector<NodeId>& node_set) const;

  /// Same computation on interned ids — the form the lowering/mapping hot
  /// path consumes (no string copies).
  struct BoundaryIds {
    std::vector<TensorId> inputs;
    std::vector<TensorId> outputs;
    std::vector<TensorId> params;
  };
  [[nodiscard]] BoundaryIds boundary_ids(std::span<const NodeId> node_set) const;

  /// Structural validation: unique names, inputs resolvable, no orphan
  /// outputs.  Throws ModelError with a precise message on violation.
  void validate() const;

  /// Total parameter bytes (all tensors flagged is_param).
  [[nodiscard]] int64_t param_bytes() const;
  /// Total parameter element count.
  [[nodiscard]] int64_t param_count() const;

  // --- index lifecycle ------------------------------------------------------

  /// Builds every lazy index (edges, type buckets, topo order) now, so later
  /// const lookups from concurrent threads are pure reads.
  void warm_indices() const;

  /// Copy that *keeps* the source's warm lookup state instead of resetting
  /// it: the name pool is deep-cloned id-for-id, the eager tables are
  /// re-pointed at the copy's own tensor map, and the lazy structural index
  /// (CSR adjacency, type buckets, topo order) is duplicated already-valid.
  /// Skips the ~O(names) re-interning and the first-query index rebuild the
  /// plain copy constructor pays — the win the plan cache's per-cell skeleton
  /// instantiation is built on.  Safe to call concurrently from readers of a
  /// warmed graph (all pure reads).  Interned ids are preserved.
  [[nodiscard]] Graph clone_warm() const;

  /// Monotonic counter bumped on every structural invalidation; lets callers
  /// detect that cached derived state (spans, topo references) went stale.
  [[nodiscard]] uint64_t index_generation() const;

 private:
  struct Index;

  void init_index();
  /// Re-interns all tensor names / graph outputs after a copy.
  void rebuild_eager_tables();
  /// Interns `name` and keeps the eager id-indexed tables sized.  Const
  /// because lazy rebuilds may intern names edited through mutable_node().
  TensorId intern_name(std::string_view name) const;
  void invalidate_structure();
  /// Double-checked lazy build of the structural (edge) index.
  const Index& ensure_edges() const;
  /// As above plus the cached topological order.
  const Index& ensure_topo() const;
  void rebuild_edges(Index& ix) const;
  void rebuild_topo(Index& ix) const;

  std::string name_;
  std::vector<Node> nodes_;
  TensorMap tensors_;
  std::vector<std::string> inputs_;
  std::vector<std::string> outputs_;

  // Eager name table: interner + id-indexed views of tensors_ (std::map
  // nodes are address-stable, so the pointers survive unrelated inserts).
  mutable StringPool names_;
  mutable std::vector<TensorDesc*> desc_of_;     ///< by TensorId; null = no desc
  mutable std::vector<uint8_t> is_output_;       ///< by TensorId

  // Lazy structural index; see graph.cpp.  unique_ptr so the atomics and
  // mutex inside don't block Graph's move operations.
  mutable std::unique_ptr<Index> index_;
};

}  // namespace proof
