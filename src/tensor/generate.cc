/**
 * @file
 * Sparse tensor generators.
 */

#include "tensor/generate.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <unordered_set>

#include "common/logging.hh"

namespace sparseloop {

SparseTensor
generateUniform(const Shape &shape, double density, std::uint64_t seed)
{
    if (!(density >= 0.0 && density <= 1.0)) {
        SL_FATAL("uniform density must be in [0, 1], got ", density);
    }
    SparseTensor t(shape);
    std::int64_t total = t.elementCount();
    auto nnz = static_cast<std::int64_t>(
        std::llround(density * static_cast<double>(total)));
    nnz = std::min(nnz, total);
    if (nnz == 0) {
        return t;
    }
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> val(0.1, 1.0);
    // Floyd's algorithm for sampling nnz distinct indices.
    std::unordered_set<std::int64_t> chosen;
    for (std::int64_t j = total - nnz; j < total; ++j) {
        std::uniform_int_distribution<std::int64_t> pick(0, j);
        std::int64_t r = pick(rng);
        if (!chosen.insert(r).second) {
            chosen.insert(j);
        }
    }
    for (auto idx : chosen) {
        t.setFlat(idx, val(rng));
    }
    return t;
}

SparseTensor
generateStructured(const Shape &shape, std::int64_t n, std::int64_t m,
                   std::uint64_t seed)
{
    if (n < 0 || m < 1) {
        SL_FATAL("structured sparsity needs n >= 0 and m >= 1, got ", n,
                 ":", m);
    }
    SparseTensor t(shape);
    std::int64_t inner = shape.back();
    std::int64_t outer = t.elementCount() / inner;
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> val(0.1, 1.0);
    std::vector<std::int64_t> perm(m);
    for (std::int64_t o = 0; o < outer; ++o) {
        for (std::int64_t b = 0; b < inner; b += m) {
            std::int64_t block = std::min(m, inner - b);
            std::int64_t keep = std::min(n, block);
            std::iota(perm.begin(), perm.begin() + block, 0);
            std::shuffle(perm.begin(), perm.begin() + block, rng);
            for (std::int64_t i = 0; i < keep; ++i) {
                t.setFlat(o * inner + b + perm[i], val(rng));
            }
        }
    }
    return t;
}

SparseTensor
generateBanded(std::int64_t rows, std::int64_t cols,
               std::int64_t half_bandwidth, double in_band_density,
               std::uint64_t seed)
{
    if (half_bandwidth < 0) {
        SL_FATAL("banded half-bandwidth must be >= 0, got ",
                 half_bandwidth);
    }
    SparseTensor t({rows, cols});
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::uniform_real_distribution<double> val(0.1, 1.0);
    for (std::int64_t i = 0; i < rows; ++i) {
        std::int64_t lo = std::max<std::int64_t>(0, i - half_bandwidth);
        std::int64_t hi = std::min(cols - 1, i + half_bandwidth);
        for (std::int64_t j = lo; j <= hi; ++j) {
            if (coin(rng) < in_band_density) {
                t.set({i, j}, val(rng));
            }
        }
    }
    return t;
}

} // namespace sparseloop
