// Unit tests: whole-graph shape inference, batch/dtype rewriting and the
// Analyze Representation (paper §3.2.2).
#include <gtest/gtest.h>

#include "analysis/analyze_representation.hpp"
#include "analysis/shape_inference.hpp"
#include "graph/serialize.hpp"
#include "models/builder.hpp"
#include "models/zoo.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace proof {
namespace {

using models::GraphBuilder;

TEST(ShapeInference, FillsAllIntermediates) {
  Graph g = proof::testing::small_cnn();
  // Blank out intermediate shapes, then re-infer.
  for (const Node& n : g.nodes()) {
    for (const std::string& out : n.outputs) {
      g.tensor(out).shape = Shape{};
    }
  }
  infer_shapes(g);
  for (const Node& n : g.nodes()) {
    for (const std::string& out : n.outputs) {
      EXPECT_FALSE(g.tensor(out).shape.empty()) << out;
    }
  }
}

TEST(ShapeInference, ErrorsCarryNodeContext) {
  GraphBuilder b("g");
  const std::string x = b.input("x", Shape{1, 4, 8, 8});
  const std::string y = b.conv(x, 8, 3, 1);
  Graph g = b.finish({y});
  // Corrupt the input shape so Conv inference fails.
  g.tensor("x").shape = Shape{1, 4};
  try {
    infer_shapes(g);
    FAIL() << "expected throw";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("Conv_0"), std::string::npos);
  }
}

TEST(ShapeInference, SetBatchSizePropagates) {
  Graph g = proof::testing::small_cnn();
  set_batch_size(g, 16);
  EXPECT_EQ(g.tensor(g.inputs()[0]).shape.dim(0), 16);
  for (const std::string& out : g.outputs()) {
    EXPECT_EQ(g.tensor(out).shape.dim(0), 16);
  }
}

TEST(ShapeInference, SetBatchSizeHandlesExpandedTokens) {
  // ViT expands a [1,1,D] class token to the batch via a shape attribute.
  Graph g = models::build_model("vit_tiny");
  set_batch_size(g, 8);
  for (const std::string& out : g.outputs()) {
    EXPECT_EQ(g.tensor(out).shape.dim(0), 8);
  }
  set_batch_size(g, 128);
  for (const std::string& out : g.outputs()) {
    EXPECT_EQ(g.tensor(out).shape.dim(0), 128);
  }
}

TEST(ShapeInference, ConvertFloatDtype) {
  Graph g = proof::testing::small_cnn();
  convert_float_dtype(g, DType::kF16);
  for (const auto& [name, desc] : g.tensors()) {
    if (dtype_is_float(desc.dtype)) {
      EXPECT_EQ(desc.dtype, DType::kF16) << name;
    }
  }
}

TEST(ShapeInference, ConvertKeepsIntegerTensors) {
  Graph g = models::build_model("distilbert");
  convert_float_dtype(g, DType::kF16);
  EXPECT_EQ(g.tensor("input_ids").dtype, DType::kI64);
}

/// graph_to_text of `g` once `specialize` ran on it, or the error it threw.
template <typename Specialize>
std::string specialized_text(Graph g, Specialize specialize) {
  try {
    specialize(g);
  } catch (const Error& e) {
    return std::string("error: ") + e.what();
  }
  return graph_to_text(g);
}

// specialize_graph folds set_batch_size and convert_float_dtype into one
// inference pass.  Every zoo model at every build precision must come out
// byte-identical to the two passes, errors included.
TEST(ShapeInference, SpecializeGraphEqualsBatchThenDtypePasses) {
  for (const auto* zoo : {&models::model_zoo(), &models::extended_model_zoo()}) {
    for (const models::ModelSpec& spec : *zoo) {
      const Graph model = models::build_model(spec.id);
      for (const DType dtype : {DType::kF32, DType::kF16, DType::kI8}) {
        for (const int64_t batch : {1, 3, 8}) {
          const std::string two_pass = specialized_text(model, [&](Graph& g) {
            set_batch_size(g, batch);
            convert_float_dtype(g, dtype);
          });
          const std::string one_pass = specialized_text(
              model, [&](Graph& g) { specialize_graph(g, batch, dtype); });
          // Not EXPECT_EQ: a mismatch would print two whole model texts.
          EXPECT_TRUE(one_pass == two_pass)
              << spec.id << " " << dtype_name(dtype) << " batch " << batch;
        }
      }
    }
  }
}

TEST(AnalyzeRepresentation, PerNodeAndTotals) {
  const AnalyzeRepresentation ar(proof::testing::small_cnn());
  EXPECT_EQ(ar.analyses().size(), ar.num_nodes());
  double sum = 0.0;
  for (const NodeAnalysis& a : ar.analyses()) {
    EXPECT_GE(a.flops, 0.0);
    EXPECT_GE(a.memory.total(), 0.0);
    sum += a.flops;
  }
  EXPECT_DOUBLE_EQ(ar.total_flops(), sum);
  EXPECT_GT(ar.param_count(), 0);
}

TEST(AnalyzeRepresentation, AnalysisTracksBatchChange) {
  const AnalyzeRepresentation ar(proof::testing::small_cnn());
  const double flops1 = ar.total_flops();
  Graph g4 = proof::testing::small_cnn();
  set_batch_size(g4, 4);
  const AnalyzeRepresentation ar4(std::move(g4));
  EXPECT_NEAR(ar4.total_flops(), 4.0 * flops1, 1e-6 * flops1 * 4);
}

TEST(AnalyzeRepresentation, MemoryScalesWithBatchParamsDoNot) {
  AnalyzeRepresentation ar1(proof::testing::small_cnn());
  const MemoryEstimate m1 = ar1.total_memory();
  Graph g = proof::testing::small_cnn();
  set_batch_size(g, 8);
  const AnalyzeRepresentation ar8(std::move(g));
  const MemoryEstimate m8 = ar8.total_memory();
  EXPECT_DOUBLE_EQ(m8.param_bytes, m1.param_bytes);
  EXPECT_NEAR(m8.read_bytes, 8.0 * m1.read_bytes, 1.0);
  EXPECT_NEAR(m8.write_bytes, 8.0 * m1.write_bytes, 1.0);
}

TEST(AnalyzeRepresentation, InvalidGraphRejected) {
  Graph g("bad");
  g.set_tensor({.name = "in", .dtype = DType::kF32, .shape = Shape{1},
                .is_param = false});
  g.add_input("in");
  Node n;
  n.name = "n";
  n.op_type = "Add";
  n.inputs = {"in", "missing"};
  n.outputs = {"out"};
  g.add_node(std::move(n));
  g.add_output("out");
  EXPECT_THROW(AnalyzeRepresentation{std::move(g)}, ModelError);
}

}  // namespace
}  // namespace proof
