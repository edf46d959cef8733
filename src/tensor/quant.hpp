// Inference-only weight quantization (DESIGN.md "Kernel backends &
// quantized inference").
//
// Two reduced-precision weight formats for the decode hot path:
//
//  * bf16 — f32 with the low 16 mantissa bits dropped (round to nearest
//    even). Elementwise relative error <= 2^-8; halves weight traffic.
//    On AVX-512 BF16 hardware the kernels also round the activations to
//    bf16 (same 2^-8 relative error) and drive vdpbf16ps, which retires
//    two multiply-accumulates per lane per cycle — 2x the f32 FMA rate.
//  * int8 — symmetric per-output-column scaling of the row-major
//    W(in, out): scale[j] = max|W[:,j]| / 127, q = round(W / scale[j]).
//    Elementwise absolute error <= scale[j] / 2; quarters weight
//    traffic. Scales are per *column* (not per input row) so the scale
//    factors out of the K reduction entirely: on AVX-512 VNNI hardware
//    the kernels quantize each activation row to u8 (zero point 128)
//    and accumulate exact int32 dot products with vpdpbusd — four
//    multiply-accumulates per lane per cycle — then apply
//    y = ascale * (scale[j] * (acc - 128 * colsum[j])) once per output.
//
// Training never sees these types: repacking is a one-time explicit step
// (TransformerLM::set_inference_quant) and autograd stays f32.
//
// Besides the canonical row-major codes, QuantMatrix carries packed
// copies laid out for the 512-bit kernels:
//
//  * q8p  — [ceil(rows/4)][padded_cols][4] int8: four consecutive K
//    entries of one column sit in adjacent bytes, so one 64-byte load
//    yields 16 columns x 4 K-steps, the exact vpdpbusd operand shape.
//  * bf16p — [ceil(rows/2)][padded_cols][2] bf16: K-pairs per column,
//    one 64-byte load = 16 columns x 2 K-steps for vdpbf16ps.
//
// Columns are zero-padded to a multiple of kQuantColPad and K to the
// group size, so the hot loops never need masked loads; the zero codes
// contribute nothing to the reduction.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "util/aligned.hpp"

namespace eva::tensor {

/// Inference weight tier. kF32 means "no repack, use the float path".
enum class QuantKind { kF32, kBf16, kInt8 };

[[nodiscard]] const char* quant_kind_name(QuantKind kind);

/// Parse "f32" / "bf16" / "int8" (case-sensitive). Returns `fallback`
/// for anything else, including the empty string.
[[nodiscard]] QuantKind parse_quant_kind(std::string_view name,
                                         QuantKind fallback);

/// Resolve the EVA_QUANT environment variable; unset or unparseable
/// yields `fallback`.
[[nodiscard]] QuantKind quant_kind_from_env(QuantKind fallback);

// --- bf16 scalar conversions -----------------------------------------------

/// Round-to-nearest-even truncation of f32 to bf16 bits (NaN-safe: NaNs
/// keep a set mantissa bit instead of rounding to infinity).
[[nodiscard]] inline std::uint16_t f32_to_bf16(float f) {
  std::uint32_t b;
  std::memcpy(&b, &f, sizeof(b));
  if ((b & 0x7fffffffu) > 0x7f800000u) {
    return static_cast<std::uint16_t>((b >> 16) | 0x0040u);
  }
  b += 0x7fffu + ((b >> 16) & 1u);
  return static_cast<std::uint16_t>(b >> 16);
}

[[nodiscard]] inline float bf16_to_f32(std::uint16_t h) {
  const std::uint32_t b = static_cast<std::uint32_t>(h) << 16;
  float f;
  std::memcpy(&f, &b, sizeof(f));
  return f;
}

// --- quantized weight matrix -------------------------------------------------

/// Column padding of the packed payloads: one register tile of the
/// quantized kernels (two 16-lane vectors).
constexpr std::size_t kQuantColPad = 32;

/// A quantized copy of one row-major weight matrix W(rows=in, cols=out).
/// The canonical payload (`bf16` or `q8`, selected by `kind`) stays
/// row-major for dequantize() and portable kernels; `q8p`/`bf16p` are
/// the 512-bit-kernel packings described in the header comment.
struct QuantMatrix {
  QuantKind kind = QuantKind::kF32;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t padded_cols = 0;      // cols rounded up to kQuantColPad
  std::vector<std::uint16_t> bf16;  // rows*cols when kind == kBf16
  std::vector<std::int8_t> q8;      // rows*cols when kind == kInt8
  std::vector<float> scale;         // cols entries when kind == kInt8
  std::vector<std::int32_t> colsum;  // cols entries: sum_k q8(k, j)
  AlignedVec<std::int8_t> q8p;       // ceil(rows/4)*padded_cols*4
  AlignedVec<std::uint16_t> bf16p;   // ceil(rows/2)*padded_cols*2

  [[nodiscard]] bool empty() const { return rows == 0 || cols == 0; }

  /// Quantize `w` (rows*cols floats, row-major). kind must not be kF32.
  /// int8 columns that are all zero (or whose max is not finite) get
  /// scale 0 and all-zero codes — dequantizing reproduces exact zeros
  /// instead of NaN.
  [[nodiscard]] static QuantMatrix quantize(QuantKind kind, const float* w,
                                            std::size_t rows,
                                            std::size_t cols);

  /// Reconstruct the float matrix into `out` (rows*cols floats).
  void dequantize(float* out) const;
};

/// Fused epilogue applied by the quantized kernels after the K reduction
/// (the whole point: bias add and activation happen while the output
/// tile is still hot, with no extra pass over Y).
enum class Epilogue { kNone, kBias, kBiasGelu };

/// exp(x) for the inference path, libm-free and branch-free so loops
/// that call it vectorize. Cephes-style: x = n·ln2 + r with n =
/// round(x·log2e) and |r| <= ln2/2 (ln2 split in two for an exact
/// n·ln2), e^r from a degree-7 polynomial, 2^n written straight into the
/// exponent field. The rounding adds 1.5·2^23, which leaves n in the low
/// mantissa bits of the sum, so no float is ever converted to int (a NaN
/// conversion would be UB). Relative error <= 2e-7 on [-87, 88]. Inputs
/// are clamped to [ln(FLT_MIN), 88.376], so larger x saturates at
/// ~2.4e38 (finite), smaller x at ~FLT_MIN, and NaN stays NaN.
[[nodiscard]] inline float exp_approx(float x) {
  constexpr float kHi = 88.3762626647949f;
  constexpr float kLo = -87.3365447505531f;
  constexpr float kLog2e = 1.44269504088896341f;
  constexpr float kLn2Hi = 0.693359375f;
  constexpr float kLn2Lo = -2.12194440e-4f;
  constexpr float kRound = 12582912.0f;  // 1.5 * 2^23
  // Written so a NaN x fails both compares and passes through.
  x = x > kHi ? kHi : x;
  x = x < kLo ? kLo : x;
  const float t = x * kLog2e + kRound;
  const float n = t - kRound;
  float r = x - n * kLn2Hi;
  r = r - n * kLn2Lo;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = p * (r * r) + r + 1.0f;
  // The low bits of t hold n (two's complement around 0x4B400000).
  const std::uint32_t e =
      (std::bit_cast<std::uint32_t>(t) - 0x4B400000u + 127u) << 23;
  return p * std::bit_cast<float>(e);
}

/// The tanh-approximation GELU used across the inference path,
/// 0.5·x·(1 + tanh u) with u = √(2/π)·(x + 0.044715·x³), evaluated as
/// the identical x / (1 + e^(−2u)) through exp_approx. Shared so the
/// fused epilogue, the unfused f32 path and the surrogate scorer are
/// bitwise identical. Training keeps the libm form (tensor::gelu).
[[nodiscard]] inline float gelu_approx(float x) {
  constexpr float kA = -2.0f * 0.7978845608028654f;             // -2·√(2/π)
  constexpr float kB = -2.0f * 0.7978845608028654f * 0.044715f;  // ·0.044715
  return x / (1.0f + exp_approx(x * (kA + kB * (x * x))));
}

}  // namespace eva::tensor
