/**
 * @file
 * Random sparse tensor generators matching the sparsity patterns of the
 * paper's density models (Table 4): uniform random, fixed-structured
 * (n:m pruning), and banded.
 */

#ifndef SPARSELOOP_TENSOR_GENERATE_HH
#define SPARSELOOP_TENSOR_GENERATE_HH

#include <cstdint>

#include "tensor/sparse_tensor.hh"

namespace sparseloop {

/**
 * Generate a tensor with exactly round(density * volume) nonzeros placed
 * uniformly at random (sampling without replacement). Throws
 * `FatalError` when @p density is outside [0, 1].
 */
SparseTensor generateUniform(const Shape &shape, double density,
                             std::uint64_t seed);

/**
 * Generate an n:m structured-sparse tensor: within every aligned block
 * of @p m consecutive elements along the innermost rank, exactly
 * min(n, m) positions are nonzero (positions chosen at random). This is
 * the 2:4 pattern of the NVIDIA sparse tensor core when n=2, m=4.
 * Throws `FatalError` when n < 0 or m < 1.
 */
SparseTensor generateStructured(const Shape &shape, std::int64_t n,
                                std::int64_t m, std::uint64_t seed);

/**
 * Generate a banded 2D matrix: element (i, j) is nonzero iff
 * |i - j| <= halfBandwidth and an optional in-band density filter keeps
 * it (inBandDensity = 1 keeps the full band). Throws `FatalError` on
 * a negative half-bandwidth.
 */
SparseTensor generateBanded(std::int64_t rows, std::int64_t cols,
                            std::int64_t half_bandwidth,
                            double in_band_density, std::uint64_t seed);

} // namespace sparseloop

#endif // SPARSELOOP_TENSOR_GENERATE_HH
