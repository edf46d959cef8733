#include "surrogate/scorer.hpp"

#include <algorithm>

#include "tensor/gemm.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace eva::surrogate {

using tensor::Epilogue;
using tensor::QuantKind;
using tensor::QuantMatrix;

SurrogateScorer::SurrogateScorer(const SurrogateModel& model, QuantKind quant)
    : cfg_(model.config()), quant_(quant) {
  const auto emb = model.emb_.data();
  const auto w1 = model.w1_.data();
  const auto b1 = model.b1_.data();
  const auto w2 = model.w2_.data();
  const auto b2 = model.b2_.data();
  emb_.assign(emb.begin(), emb.end());
  b1_.assign(b1.begin(), b1.end());
  b2_.assign(b2.begin(), b2.end());
  const auto E = static_cast<std::size_t>(cfg_.d_embed);
  const auto H = static_cast<std::size_t>(cfg_.d_hidden);
  if (quant_ == QuantKind::kF32) {
    w1_.assign(w1.begin(), w1.end());
    w2_.assign(w2.begin(), w2.end());
  } else {
    qw1_ = QuantMatrix::quantize(quant_, w1.data(), E, H);
    qw2_ = QuantMatrix::quantize(quant_, w2.data(), H,
                                 static_cast<std::size_t>(kNumClasses));
  }
}

void SurrogateScorer::pool_into(const std::vector<int>& ids, float* row) const {
  const auto E = static_cast<std::size_t>(cfg_.d_embed);
  int n = 0;
  for (const int id : ids) {
    if (id < 0 || id >= cfg_.vocab) continue;
    const float* e = &emb_[static_cast<std::size_t>(id) * E];
    for (std::size_t j = 0; j < E; ++j) row[j] += e[j];
    ++n;
  }
  if (n > 0) {
    const float inv = 1.0f / static_cast<float>(n);
    for (std::size_t j = 0; j < E; ++j) row[j] *= inv;
  }
}

void SurrogateScorer::mlp_scores(const float* X, std::size_t n,
                                 float* out) const {
  const auto E = static_cast<std::size_t>(cfg_.d_embed);
  const auto H = static_cast<std::size_t>(cfg_.d_hidden);
  constexpr std::size_t C = kNumClasses;
  std::vector<float> h(n * H, 0.0f);
  std::vector<float> logits(n * C, 0.0f);
  if (quant_ == QuantKind::kF32) {
    tensor::gemm_nn(X, w1_.data(), h.data(), n, E, H);
    // Unfused epilogue via the shared gelu_approx, bitwise matching the
    // quantized kernels' kBiasGelu on identical inputs.
    for (std::size_t i = 0; i < n; ++i) {
      float* hr = &h[i * H];
      for (std::size_t j = 0; j < H; ++j) {
        hr[j] = tensor::gelu_approx(hr[j] + b1_[j]);
      }
    }
    tensor::gemm_nn(h.data(), w2_.data(), logits.data(), n, H, C);
    for (std::size_t i = 0; i < n; ++i) {
      float* lr = &logits[i * C];
      for (std::size_t j = 0; j < C; ++j) lr[j] += b2_[j];
    }
  } else {
    tensor::qgemm(X, qw1_, b1_.data(), h.data(), n, Epilogue::kBiasGelu);
    tensor::qgemm(h.data(), qw2_, b2_.data(), logits.data(), n,
                  Epilogue::kBias);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const float* lr = &logits[i * C];
    float mx = lr[0];
    for (std::size_t j = 1; j < C; ++j) mx = std::max(mx, lr[j]);
    float p[C];
    float sum = 0.0f;
    for (std::size_t j = 0; j < C; ++j) {
      p[j] = std::exp(lr[j] - mx);
      sum += p[j];
    }
    const float inv = 1.0f / sum;
    for (std::size_t j = 0; j < C; ++j) p[j] *= inv;
    out[i] = expected_rank_score(p);
  }
}

std::vector<float> SurrogateScorer::score_batch(
    const std::vector<const std::vector<int>*>& seqs) const {
  const std::size_t n = seqs.size();
  if (n == 0) return {};
  const auto E = static_cast<std::size_t>(cfg_.d_embed);
  std::vector<float> X(n * E, 0.0f);
  // Pooling parallelizes across sequences; the GEMMs below parallelize
  // internally.
  parallel_for(0, n, [&](std::size_t i) {
    EVA_ASSERT(seqs[i] != nullptr, "surrogate: null sequence");
    pool_into(*seqs[i], &X[i * E]);
  });
  std::vector<float> out(n, 0.0f);
  mlp_scores(X.data(), n, out.data());
  return out;
}

std::vector<float> SurrogateScorer::score_batch(
    const std::vector<std::vector<int>>& seqs) const {
  std::vector<const std::vector<int>*> ptrs;
  ptrs.reserve(seqs.size());
  for (const auto& s : seqs) ptrs.push_back(&s);
  return score_batch(ptrs);
}

float SurrogateScorer::score_one(const std::vector<int>& ids) const {
  return score_batch(std::vector<const std::vector<int>*>{&ids})[0];
}

std::vector<float> SurrogateScorer::score_prefixes(
    const std::vector<int>& ids) const {
  const std::size_t T = ids.size();
  if (T == 0) return {};
  const auto E = static_cast<std::size_t>(cfg_.d_embed);
  std::vector<float> X(T * E, 0.0f);
  // Running-sum pooling: prefix t's row is the cumulative embedding sum
  // scaled by the in-range token count — the same sum-then-scale order
  // as pool_into, so the full-length row matches score_one bitwise.
  std::vector<float> sum(E, 0.0f);
  int n = 0;
  for (std::size_t t = 0; t < T; ++t) {
    const int id = ids[t];
    if (id >= 0 && id < cfg_.vocab) {
      const float* e = &emb_[static_cast<std::size_t>(id) * E];
      for (std::size_t j = 0; j < E; ++j) sum[j] += e[j];
      ++n;
    }
    float* row = &X[t * E];
    if (n > 0) {
      const float inv = 1.0f / static_cast<float>(n);
      for (std::size_t j = 0; j < E; ++j) row[j] = sum[j] * inv;
    }
  }
  std::vector<float> out(T, 0.0f);
  mlp_scores(X.data(), T, out.data());
  return out;
}

}  // namespace eva::surrogate
