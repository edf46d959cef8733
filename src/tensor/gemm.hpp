// Blocked, vectorization-friendly GEMM kernel family: one register-tiled
// micro-kernel (MR x NR accumulator block, NR = one cache line of floats)
// backs every matmul variant of the tensor engine and every linear of
// the batched KV-cache decode step. All matrices are row-major float32
// and the GEMM trio *accumulates* into C (C += ...), matching the
// autograd convention of += into grads.
//
// The quantized entry (qgemm) is inference-only: weight-quantized
// bf16/int8 matrices (tensor/quant.hpp) with a fused bias+activation
// epilogue. It OVERWRITES its output. On AVX-512 VNNI/BF16 hardware
// the multiplies run natively reduced-precision (int8: u8-quantized
// activations + exact int32 vpdpbusd accumulation rescaled per column;
// bf16: bf16-rounded activations + vdpbf16ps); elsewhere a portable
// dequant-panel fallback computes in f32 with f32 activations. See
// tensor/quant.hpp for the error model.
//
// Threading: gemm_nn / gemm_nt partition over rows of C, gemm_tn and
// qgemm over columns of C (each thread owns a disjoint column stripe, so
// the K-reduction needs no atomics or per-thread buffers). All dispatch
// via eva::parallel_chunks with chunks sized from the work, so small
// products (a decode step's few rows) run inline, as does everything
// under set_num_threads(1) or inside another parallel region.
#pragma once

#include <cstddef>

#include "tensor/quant.hpp"

namespace eva::tensor {

/// C(M,N) += A(M,K) @ B(K,N).
void gemm_nn(const float* A, const float* B, float* C, std::size_t M,
             std::size_t K, std::size_t N);

/// C(M,N) += A(M,K) @ B(N,K)^T.
void gemm_nt(const float* A, const float* B, float* C, std::size_t M,
             std::size_t K, std::size_t N);

/// C(M,N) += A(K,M)^T @ B(K,N). This is the weight-gradient shape
/// (dW += X^T @ dY); parallel over column stripes of C.
void gemm_tn(const float* A, const float* B, float* C, std::size_t K,
             std::size_t M, std::size_t N);

/// Y(n,out) ~= epilogue(X(n,in) @ dequant(W) [+ bias]) for a quantized
/// weight matrix W(in,out), within the tier's documented error bound.
/// Overwrites Y; bias must be non-null for the kBias/kBiasGelu
/// epilogues. Per-row values are independent of n (a row's activation
/// quantization, reduction order and epilogue are fixed by the shapes
/// alone), preserving the batched decoder's width-invariance under
/// quantization.
void qgemm(const float* X, const QuantMatrix& W, const float* bias, float* Y,
           std::size_t n, Epilogue ep);

}  // namespace eva::tensor
