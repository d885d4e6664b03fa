// Unit tests: interned-name graph index — string pool round-trips, lazy index
// invalidation + generation protocol, and a graph-mutation fuzz asserting the
// id-based and string-based lookup paths agree with a brute-force oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/string_pool.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace proof {
namespace {

Node make_node(const std::string& name, const std::string& type,
               std::vector<std::string> in, std::vector<std::string> out) {
  Node n;
  n.name = name;
  n.op_type = type;
  n.inputs = std::move(in);
  n.outputs = std::move(out);
  return n;
}

Graph chain3() {
  // in -> a -> b -> c -> out
  Graph g("chain3");
  g.set_tensor({.name = "in", .dtype = DType::kF32, .shape = Shape{4}});
  g.add_input("in");
  g.add_node(make_node("a", "Relu", {"in"}, {"ta"}));
  g.add_node(make_node("b", "Relu", {"ta"}, {"tb"}));
  g.add_node(make_node("c", "Relu", {"tb"}, {"tc"}));
  g.add_output("tc");
  return g;
}

// --- StringPool --------------------------------------------------------------

TEST(StringPool, RoundTripAndDenseIds) {
  StringPool pool;
  EXPECT_EQ(pool.find("x"), StringPool::kInvalidId);
  const int32_t a = pool.intern("alpha");
  const int32_t b = pool.intern("beta");
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(pool.intern("alpha"), a);  // re-intern is idempotent
  EXPECT_EQ(pool.find("beta"), b);
  EXPECT_EQ(pool.view(a), "alpha");
  EXPECT_EQ(pool.str(b), "beta");
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_TRUE(pool.contains("alpha"));
  EXPECT_FALSE(pool.contains("gamma"));
}

TEST(StringPool, ManySimilarNamesStayDistinct) {
  // Near-identical names (shared prefixes, same length) stress the hash
  // table: every name must keep its own id and round-trip exactly.
  StringPool pool;
  std::vector<int32_t> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(pool.intern("tensor_" + std::to_string(i)));
  }
  EXPECT_EQ(pool.size(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    const std::string name = "tensor_" + std::to_string(i);
    EXPECT_EQ(pool.find(name), ids[static_cast<size_t>(i)]);
    EXPECT_EQ(pool.view(ids[static_cast<size_t>(i)]), name);
  }
  // Ids stay stable across later growth (append-only contract).
  const int32_t early = pool.find("tensor_0");
  pool.intern("late_arrival");
  EXPECT_EQ(pool.find("tensor_0"), early);
}

TEST(StringPool, OutOfRangeIdThrows) {
  StringPool pool;
  pool.intern("only");
  EXPECT_THROW((void)pool.view(1), Error);
  EXPECT_THROW((void)pool.view(-1), Error);
}

// --- invalidation / generation protocol --------------------------------------

TEST(GraphIndex, ConstQueriesDoNotBumpGeneration) {
  const Graph g = chain3();
  const uint64_t gen = g.index_generation();
  (void)g.topo_order();
  (void)g.consumers("ta");
  (void)g.find_node("b");
  (void)g.nodes_of_type("Relu");
  EXPECT_EQ(g.index_generation(), gen);
}

TEST(GraphIndex, AddNodeBumpsGenerationAndRefreshesResults) {
  Graph g = chain3();
  EXPECT_EQ(g.topo_order().size(), 3u);
  EXPECT_TRUE(g.consumers("tc").empty());
  const uint64_t gen = g.index_generation();

  g.add_node(make_node("d", "Sigmoid", {"tc"}, {"td"}));
  EXPECT_GT(g.index_generation(), gen);

  // Every lazy index serves fresh results after the mutation.
  EXPECT_EQ(g.topo_order().size(), 4u);
  ASSERT_EQ(g.consumers("tc").size(), 1u);
  EXPECT_EQ(g.node(g.consumers("tc").front()).name, "d");
  EXPECT_EQ(g.find_node("d"), g.topo_order().back());
  EXPECT_EQ(g.nodes_of_type("Sigmoid").size(), 1u);
  EXPECT_EQ(g.producer("td"), g.find_node("d"));
}

TEST(GraphIndex, MutableNodeAccessInvalidates) {
  Graph g = chain3();
  EXPECT_EQ(g.find_node("b"), 1);
  const uint64_t gen = g.index_generation();

  g.mutable_node(1).name = "b_renamed";  // write access invalidates
  EXPECT_GT(g.index_generation(), gen);
  EXPECT_EQ(g.find_node("b"), kInvalidNode);
  EXPECT_EQ(g.find_node("b_renamed"), 1);

  // Rewiring is picked up too: route c's input straight to ta.
  g.mutable_node(2).inputs = {"ta"};
  ASSERT_EQ(g.consumers("ta").size(), 2u);
  EXPECT_TRUE(g.consumers("tb").empty());
}

TEST(GraphIndex, ReadsAndAttrEditsDoNotInvalidate) {
  Graph g = chain3();  // non-const: node() must still be a pure read
  (void)g.topo_order();
  const uint64_t gen = g.index_generation();

  EXPECT_EQ(g.node(1).name, "b");
  g.mutable_attrs(1).set("alpha", 0.5);
  EXPECT_EQ(g.index_generation(), gen);
  EXPECT_TRUE(g.node(1).attrs.has("alpha"));
}

TEST(GraphIndex, CachedTopoReferenceStableUntilMutation) {
  const Graph g = chain3();
  const std::vector<NodeId>* first = &g.topo_order();
  const std::vector<NodeId>* second = &g.topo_order();
  EXPECT_EQ(first, second);  // cached: same object, no recompute
  EXPECT_EQ(g.index_generation(), g.index_generation());
}

TEST(GraphIndex, SetTensorDoesNotInvalidateStructure) {
  Graph g = chain3();
  (void)g.topo_order();
  const uint64_t gen = g.index_generation();
  g.set_tensor({.name = "ta", .dtype = DType::kF16, .shape = Shape{4}});
  EXPECT_EQ(g.index_generation(), gen);  // desc-only change, structure intact
  EXPECT_EQ(g.tensor("ta").dtype, DType::kF16);
}

TEST(GraphIndex, CopyResetsInternerButPreservesLookups) {
  const Graph g = chain3();
  (void)g.topo_order();
  const Graph copy = g;  // must re-intern into its own pool
  EXPECT_EQ(copy.find_node("b"), g.find_node("b"));
  EXPECT_EQ(copy.topo_order(), g.topo_order());
  EXPECT_EQ(copy.producer("tb"), g.producer("tb"));
  EXPECT_EQ(copy.tensor_name(copy.tensor_id("ta")), "ta");
}

TEST(GraphIndex, DuplicateNodeNameSurfacesOnQuery) {
  Graph g("dup");
  g.set_tensor({.name = "in", .dtype = DType::kF32, .shape = Shape{1}});
  g.add_input("in");
  g.add_node(make_node("same", "Relu", {"in"}, {"t0"}));
  g.add_node(make_node("same", "Relu", {"t0"}, {"t1"}));
  EXPECT_THROW((void)g.find_node("same"), ModelError);
}

// --- graph-mutation fuzz ------------------------------------------------------

// Brute-force oracle: linear scans and string-keyed sets/maps straight off
// g.nodes(), sharing nothing with the interned index it checks.

NodeId oracle_producer(const Graph& g, const std::string& tensor) {
  NodeId last = kInvalidNode;  // last writer wins
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    const std::vector<std::string>& outs = g.nodes()[i].outputs;
    if (std::find(outs.begin(), outs.end(), tensor) != outs.end()) {
      last = static_cast<NodeId>(i);
    }
  }
  return last;
}

std::vector<NodeId> oracle_consumers(const Graph& g, const std::string& tensor) {
  std::vector<NodeId> uses;  // one entry per use, in node order
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    for (const std::string& in : g.nodes()[i].inputs) {
      if (in == tensor) {
        uses.push_back(static_cast<NodeId>(i));
      }
    }
  }
  return uses;
}

NodeId oracle_find_node(const Graph& g, const std::string& name) {
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    if (g.nodes()[i].name == name) {
      return static_cast<NodeId>(i);
    }
  }
  return kInvalidNode;
}

/// Kahn's algorithm over name-keyed maps with a FIFO ready queue seeded in
/// node order — the visit order the cached topo_order() promises.
std::vector<NodeId> oracle_topo(const Graph& g) {
  const std::vector<Node>& nodes = g.nodes();
  std::map<std::string, NodeId> producer;
  std::map<std::string, std::vector<NodeId>> consumers;
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (const std::string& out : nodes[i].outputs) {
      producer[out] = static_cast<NodeId>(i);
    }
    for (const std::string& in : nodes[i].inputs) {
      consumers[in].push_back(static_cast<NodeId>(i));
    }
  }
  std::vector<int> in_degree(nodes.size(), 0);
  std::deque<NodeId> ready;
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (const std::string& in : nodes[i].inputs) {
      in_degree[i] += producer.count(in) > 0 ? 1 : 0;
    }
    if (in_degree[i] == 0) {
      ready.push_back(static_cast<NodeId>(i));
    }
  }
  std::vector<NodeId> order;
  while (!ready.empty()) {
    const NodeId id = ready.front();
    ready.pop_front();
    order.push_back(id);
    for (const std::string& out : nodes[static_cast<size_t>(id)].outputs) {
      for (const NodeId c : consumers[out]) {
        if (--in_degree[static_cast<size_t>(c)] == 0) {
          ready.push_back(c);
        }
      }
    }
  }
  return order;
}

bool oracle_is_param(const Graph& g, const std::string& tensor) {
  const auto it = g.tensors().find(tensor);
  return it != g.tensors().end() && it->second.is_param;
}

Graph::Boundary oracle_boundary(const Graph& g, const std::vector<NodeId>& set) {
  const std::set<NodeId> members(set.begin(), set.end());
  std::set<std::string> produced;
  for (const NodeId id : set) {
    produced.insert(g.node(id).outputs.begin(), g.node(id).outputs.end());
  }
  Graph::Boundary b;
  std::set<std::string> seen;
  for (const NodeId id : set) {
    for (const std::string& in : g.node(id).inputs) {
      if (produced.count(in) > 0 || !seen.insert(in).second) {
        continue;
      }
      (oracle_is_param(g, in) ? b.params : b.inputs).push_back(in);
    }
  }
  const std::set<std::string> graph_outputs(g.outputs().begin(), g.outputs().end());
  for (const NodeId id : set) {
    for (const std::string& out : g.node(id).outputs) {
      bool external = graph_outputs.count(out) > 0;
      for (const NodeId c : oracle_consumers(g, out)) {
        external = external || members.count(c) == 0;
      }
      if (external) {
        b.outputs.push_back(out);
      }
    }
  }
  return b;
}

std::optional<std::vector<NodeId>> oracle_subgraph(const Graph& g,
                                                   const std::vector<std::string>& ins,
                                                   const std::vector<std::string>& outs) {
  const std::set<std::string> stop(ins.begin(), ins.end());
  std::set<NodeId> visited;
  std::deque<NodeId> frontier;
  const auto visit = [&](const std::string& tensor) {
    const NodeId p = oracle_producer(g, tensor);
    if (p != kInvalidNode && visited.insert(p).second) {
      frontier.push_back(p);
    }
    return p != kInvalidNode;
  };
  for (const std::string& out : outs) {
    if (!visit(out)) {
      return std::nullopt;
    }
  }
  while (!frontier.empty()) {
    const NodeId id = frontier.front();
    frontier.pop_front();
    for (const std::string& in : g.node(id).inputs) {
      if (stop.count(in) == 0 && !oracle_is_param(g, in) && !visit(in)) {
        return std::nullopt;  // escaped the declared boundary
      }
    }
  }
  return std::vector<NodeId>(visited.begin(), visited.end());
}

/// Asserts that the string-keyed and id-keyed lookup APIs agree on `g`, and
/// that the indexed results match the brute-force oracle above.
void expect_lookup_agreement(const Graph& g) {
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    const Node& n = g.node(static_cast<NodeId>(i));
    ASSERT_EQ(g.find_node(n.name), static_cast<NodeId>(i));
    EXPECT_EQ(oracle_find_node(g, n.name), static_cast<NodeId>(i));
    const auto in_ids = g.node_input_ids(static_cast<NodeId>(i));
    ASSERT_EQ(in_ids.size(), n.inputs.size());
    for (size_t k = 0; k < n.inputs.size(); ++k) {
      EXPECT_EQ(in_ids[k], g.tensor_id(n.inputs[k]));
      EXPECT_EQ(g.tensor_name(in_ids[k]), n.inputs[k]);
    }
    const auto out_ids = g.node_output_ids(static_cast<NodeId>(i));
    ASSERT_EQ(out_ids.size(), n.outputs.size());
    for (size_t k = 0; k < n.outputs.size(); ++k) {
      EXPECT_EQ(out_ids[k], g.tensor_id(n.outputs[k]));
    }
  }
  for (const auto& [name, desc] : g.tensors()) {
    const TensorId id = g.tensor_id(name);
    ASSERT_NE(id, kInvalidTensor) << name;
    EXPECT_EQ(g.has_tensor(name), g.has_tensor(id));
    EXPECT_EQ(&g.tensor(name), &g.tensor(id));
    EXPECT_EQ(g.producer(name), g.producer(id));
    EXPECT_EQ(g.producer(name), oracle_producer(g, name)) << name;
    const auto by_name = g.consumers(name);
    const auto by_id = g.consumers(id);
    ASSERT_TRUE(std::equal(by_name.begin(), by_name.end(), by_id.begin(),
                           by_id.end()));
    const std::vector<NodeId> expected = oracle_consumers(g, name);
    EXPECT_TRUE(std::equal(by_name.begin(), by_name.end(), expected.begin(),
                           expected.end()))
        << name;
  }
  for (const char* type : {"Relu", "Add"}) {
    const auto bucket = g.nodes_of_type(type);
    std::vector<NodeId> expected;
    for (size_t i = 0; i < g.num_nodes(); ++i) {
      if (g.nodes()[i].op_type == type) {
        expected.push_back(static_cast<NodeId>(i));
      }
    }
    EXPECT_TRUE(std::equal(bucket.begin(), bucket.end(), expected.begin(),
                           expected.end()))
        << type;
  }

  EXPECT_EQ(g.topo_order(), oracle_topo(g));
  std::vector<NodeId> all_nodes(g.num_nodes());
  for (size_t i = 0; i < all_nodes.size(); ++i) {
    all_nodes[i] = static_cast<NodeId>(i);
  }
  const Graph::Boundary boundary = g.boundary(all_nodes);
  const Graph::Boundary expected = oracle_boundary(g, all_nodes);
  EXPECT_EQ(boundary.inputs, expected.inputs);
  EXPECT_EQ(boundary.outputs, expected.outputs);
  EXPECT_EQ(boundary.params, expected.params);
  EXPECT_EQ(g.subgraph_by_io(boundary.inputs, boundary.outputs),
            oracle_subgraph(g, expected.inputs, expected.outputs));
}

TEST(GraphIndexFuzz, RandomMutationsKeepAllLookupPathsInAgreement) {
  std::mt19937 rng(20260806);
  for (int round = 0; round < 8; ++round) {
    Graph g("fuzz_" + std::to_string(round));
    g.set_tensor({.name = "in", .dtype = DType::kF32, .shape = Shape{8}});
    g.add_input("in");
    std::vector<std::string> tensors = {"in"};
    int fresh = 0;

    const int mutations = 20 + round * 10;
    for (int m = 0; m < mutations; ++m) {
      const int action = static_cast<int>(rng() % 10);
      if (action < 6 || g.num_nodes() == 0) {
        // Add a node consuming 1-3 random existing tensors (duplicates
        // allowed — consumer multiplicity must survive the CSR build).
        std::vector<std::string> ins;
        const int arity = 1 + static_cast<int>(rng() % 3);
        for (int k = 0; k < arity; ++k) {
          ins.push_back(tensors[rng() % tensors.size()]);
        }
        const std::string out = "t" + std::to_string(fresh);
        const std::string name = "n" + std::to_string(fresh);
        ++fresh;
        const char* type = (rng() % 2 == 0) ? "Relu" : "Add";
        g.add_node(make_node(name, type, std::move(ins), {out}));
        tensors.push_back(out);
      } else if (action < 8) {
        // Update a tensor desc in place (no structural change).
        g.set_tensor({.name = tensors[rng() % tensors.size()],
                      .dtype = DType::kF16,
                      .shape = Shape{8}});
      } else {
        // Rename a random node through the mutable accessor.
        const NodeId victim = static_cast<NodeId>(rng() % g.num_nodes());
        g.mutable_node(victim).name = "renamed_" + std::to_string(fresh++);
      }
      if (m % 7 == 0) {
        expect_lookup_agreement(g);
        if (::testing::Test::HasFatalFailure()) {
          return;
        }
      }
    }
    expect_lookup_agreement(g);
  }
}

}  // namespace
}  // namespace proof
