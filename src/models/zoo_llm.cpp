// Decoder-only LLM builders for autoregressive serving workloads.
//
// Unlike the encoder-style zoo models, generation has two phases with very
// different roofline positions:
//   * prefill  — the whole prompt (sequence length S) runs through the stack
//     in one pass; attention is S x S and the workload is GEMM-dominated.
//   * decode   — one token per step; attention reads the per-layer KV cache
//     [B, heads, S_past, d_head] whose S_past grows every step, so the bytes
//     (and with them the arithmetic intensity) change across positions while
//     the FLOP stays almost flat.  This is the memory-bound regime the
//     time-based roofline (arXiv:2009.04598) was made for.
//
// The decode-step graph models the cache traffic the runtime actually
// performs: the caches enter as graph inputs, the appended K/V tensors are
// graph outputs (cache write-back), and the attention matmuls read the full
// concatenated sequence.
//
// Position-parameterized fingerprint contract: build_llm_decode_step(P) must
// keep the decode position OUT of everything the shape-erased structural
// fingerprint hashes — P appears only in the graph name
// ("<id>_decode_p<P>", dropped by GraphKeys::structural) and in the
// past_k_/past_v_ *input* tensor dims (rank-erased for non-params).  Node
// names, op types, attrs (reshape targets use t=1, never P) and param shapes
// are position-independent, so every position of a decode sweep maps to one
// structural fingerprint and shares one AnalysisPlan (core/analysis_plan.hpp).
// Keep it that way: baking P into a node name, an attr, or a param shape
// silently turns the sweep-decode inner loop back into full rebuilds.
#include <string>
#include <vector>

#include "models/builder.hpp"
#include "models/zoo.hpp"
#include "models/zoo_internal.hpp"
#include "support/error.hpp"

namespace proof::models {

namespace {

/// [B, T, D] -> [B, H, T, dh] head split.
std::string to_heads(GraphBuilder& b, const std::string& x, int64_t t,
                     int64_t heads, int64_t dh) {
  return b.transpose(b.reshape(x, {-1, t, heads, dh}), {0, 2, 1, 3});
}

/// MLP block: SwiGLU (llama) or plain GELU MLP (gpt2).
std::string llm_mlp(GraphBuilder& b, const std::string& x, const LlmConfig& cfg) {
  if (cfg.gated_mlp) {
    std::string gate = b.linear(x, cfg.ffn, /*bias=*/false);
    gate = b.act(gate, "Silu");
    const std::string up = b.linear(x, cfg.ffn, /*bias=*/false);
    const std::string h = b.mul(gate, up);
    return b.linear(h, cfg.dim, /*bias=*/false);
  }
  std::string h = b.linear(x, cfg.ffn);
  h = b.act(h, "Gelu");
  return b.linear(h, cfg.dim);
}

/// Rotary position embedding stand-in: one elementwise rotation per q/k.
/// The real RoPE is a fused sin/cos multiply-add; a broadcast Mul carries the
/// same (negligible) FLOP and traffic without new operator types.
std::string maybe_rope(GraphBuilder& b, const std::string& x, const LlmConfig& cfg) {
  return cfg.rotary ? b.binary_param("Mul", x, Shape{1}) : x;
}

/// Prefill self-attention over the full sequence; appends this layer's K/V
/// tensors ([B, H, S, dh]) to `cache_out` so they become graph outputs (the
/// prompt pass populates the cache the decode steps consume).
std::string prefill_attention(GraphBuilder& b, const std::string& x,
                              const LlmConfig& cfg,
                              std::vector<std::string>& cache_out) {
  const int64_t t = b.dim(x, 1);
  const int64_t dh = cfg.dim / cfg.heads;
  std::string q = to_heads(b, b.linear(x, cfg.dim, cfg.qkv_bias), t, cfg.heads, dh);
  std::string k = to_heads(b, b.linear(x, cfg.dim, cfg.qkv_bias), t, cfg.heads, dh);
  const std::string v =
      to_heads(b, b.linear(x, cfg.dim, cfg.qkv_bias), t, cfg.heads, dh);
  q = maybe_rope(b, q, cfg);
  k = maybe_rope(b, k, cfg);
  cache_out.push_back(k);
  cache_out.push_back(v);
  std::string attn = b.matmul(q, b.transpose(k, {0, 1, 3, 2}));  // [B, H, S, S]
  attn = b.binary_param("Mul", attn, Shape{1});                  // 1/sqrt(dh)
  attn = b.softmax(attn);
  std::string out = b.matmul(attn, v);                           // [B, H, S, dh]
  out = b.reshape(b.transpose(out, {0, 2, 1, 3}), {-1, t, cfg.dim});
  return b.linear(out, cfg.dim, cfg.qkv_bias);
}

/// Decode-step self-attention for one new token: reads the KV cache
/// [B, H, S_past, dh] (graph inputs `past_k_<l>` / `past_v_<l>`), appends the
/// new K/V, and attends over S_past + 1 positions.  The concatenated caches
/// go to `cache_out` (write-back outputs).
std::string decode_attention(GraphBuilder& b, const std::string& x,
                             const LlmConfig& cfg, int layer, int64_t past_len,
                             std::vector<std::string>& cache_out) {
  const int64_t dh = cfg.dim / cfg.heads;
  const std::string past_k = b.input("past_k_" + std::to_string(layer),
                                     Shape{1, cfg.heads, past_len, dh});
  const std::string past_v = b.input("past_v_" + std::to_string(layer),
                                     Shape{1, cfg.heads, past_len, dh});
  std::string q = to_heads(b, b.linear(x, cfg.dim, cfg.qkv_bias), 1, cfg.heads, dh);
  std::string k = to_heads(b, b.linear(x, cfg.dim, cfg.qkv_bias), 1, cfg.heads, dh);
  const std::string v =
      to_heads(b, b.linear(x, cfg.dim, cfg.qkv_bias), 1, cfg.heads, dh);
  q = maybe_rope(b, q, cfg);
  k = maybe_rope(b, k, cfg);
  const std::string keys = b.concat({past_k, k}, 2);      // [B, H, S+1, dh]
  const std::string values = b.concat({past_v, v}, 2);
  cache_out.push_back(keys);
  cache_out.push_back(values);
  std::string attn = b.matmul(q, b.transpose(keys, {0, 1, 3, 2}));  // [B,H,1,S+1]
  attn = b.binary_param("Mul", attn, Shape{1});
  attn = b.softmax(attn);
  std::string out = b.matmul(attn, values);               // [B, H, 1, dh]
  out = b.reshape(b.transpose(out, {0, 2, 1, 3}), {-1, 1, cfg.dim});
  return b.linear(out, cfg.dim, cfg.qkv_bias);
}

/// Embedding + position handling shared by both phases.
std::string embed_tokens(GraphBuilder& b, const LlmConfig& cfg, int64_t t) {
  const std::string ids = b.input("input_ids", Shape{1, t}, DType::kI64);
  std::string x = b.embedding(ids, cfg.vocab, cfg.dim);   // [B, T, D]
  if (!cfg.rotary) {
    // Learned absolute position embeddings (gpt2 style).
    x = b.binary_param("Add", x, Shape{1, t, cfg.dim});
  }
  return x;
}

/// Pre-LN decoder block (LayerNorm stands in for RMSNorm on llama-style
/// configs; same traffic, near-identical FLOP).
template <typename AttentionFn>
std::string decoder_block(GraphBuilder& b, std::string x, const LlmConfig& cfg,
                          AttentionFn&& attention) {
  std::string h = attention(b.layernorm(x));
  x = b.add(x, h);
  h = llm_mlp(b, b.layernorm(x), cfg);
  return b.add(x, h);
}

}  // namespace

const std::vector<LlmConfig>& llm_zoo() {
  static const std::vector<LlmConfig>* configs = new std::vector<LlmConfig>{
      // LLaMA-style 7B-ish: SwiGLU MLP, rotary positions, untied LM head.
      {"llama7b", "LLaMA-7B (decoder)", 32, 4096, 32, 11008, 32000,
       /*gated_mlp=*/true, /*rotary=*/true, /*qkv_bias=*/false,
       /*default_prefill=*/512},
      // GPT-2 small: GELU MLP, learned absolute positions, biased projections.
      {"gpt2", "GPT-2 small (decoder)", 12, 768, 12, 3072, 50257,
       /*gated_mlp=*/false, /*rotary=*/false, /*qkv_bias=*/true,
       /*default_prefill=*/512},
  };
  return *configs;
}

const LlmConfig& llm_config(const std::string& id) {
  for (const LlmConfig& cfg : llm_zoo()) {
    if (cfg.id == id) {
      return cfg;
    }
  }
  throw ConfigError("unknown LLM config '" + id + "' (known: llama7b, gpt2)");
}

Graph build_llm_prefill(const LlmConfig& cfg, int64_t seq_len) {
  PROOF_CHECK(seq_len >= 1, "prefill sequence length must be >= 1, got " << seq_len);
  PROOF_CHECK(cfg.dim % cfg.heads == 0,
              "model dim " << cfg.dim << " not divisible by heads " << cfg.heads);
  GraphBuilder b(cfg.id + "_prefill_s" + std::to_string(seq_len));
  std::string x = embed_tokens(b, cfg, seq_len);
  std::vector<std::string> cache_out;
  for (int64_t layer = 0; layer < cfg.layers; ++layer) {
    x = decoder_block(b, x, cfg, [&](const std::string& h) {
      return prefill_attention(b, h, cfg, cache_out);
    });
  }
  x = b.layernorm(x);
  // Generation only needs logits for the last position.
  x = b.slice(x, {1}, {seq_len - 1}, {seq_len});
  x = b.reshape(x, {-1, cfg.dim});
  std::vector<std::string> outputs = {b.linear(x, cfg.vocab, /*bias=*/false)};
  outputs.insert(outputs.end(), cache_out.begin(), cache_out.end());
  return b.finish(outputs);
}

const std::vector<ModelSpec>& llm_model_specs() {
  static const std::vector<ModelSpec>* specs = new std::vector<ModelSpec>{
      {0, "llama7b_prefill", "LLaMA-7B prefill (S=512)", "LLM",
       [] {
         const LlmConfig& cfg = llm_config("llama7b");
         return build_llm_prefill(cfg, cfg.default_prefill);
       }},
      {0, "llama7b_decode", "LLaMA-7B decode step (S_past=512)", "LLM",
       [] {
         const LlmConfig& cfg = llm_config("llama7b");
         return build_llm_decode_step(cfg, cfg.default_prefill);
       }},
      {0, "gpt2_prefill", "GPT-2 prefill (S=512)", "LLM",
       [] {
         const LlmConfig& cfg = llm_config("gpt2");
         return build_llm_prefill(cfg, cfg.default_prefill);
       }},
      {0, "gpt2_decode", "GPT-2 decode step (S_past=512)", "LLM",
       [] {
         const LlmConfig& cfg = llm_config("gpt2");
         return build_llm_decode_step(cfg, cfg.default_prefill);
       }},
  };
  return *specs;
}

Graph build_llm_decode_step(const LlmConfig& cfg, int64_t past_len) {
  PROOF_CHECK(past_len >= 1, "decode position must be >= 1, got " << past_len);
  PROOF_CHECK(cfg.dim % cfg.heads == 0,
              "model dim " << cfg.dim << " not divisible by heads " << cfg.heads);
  GraphBuilder b(cfg.id + "_decode_p" + std::to_string(past_len));
  std::string x = embed_tokens(b, cfg, 1);
  std::vector<std::string> cache_out;
  for (int64_t layer = 0; layer < cfg.layers; ++layer) {
    x = decoder_block(b, x, cfg, [&](const std::string& h) {
      return decode_attention(b, h, cfg, static_cast<int>(layer), past_len,
                              cache_out);
    });
  }
  x = b.layernorm(x);
  x = b.reshape(x, {-1, cfg.dim});
  std::vector<std::string> outputs = {b.linear(x, cfg.vocab, /*bias=*/false)};
  outputs.insert(outputs.end(), cache_out.begin(), cache_out.end());
  return b.finish(outputs);
}

}  // namespace proof::models
