/**
 * @file
 * Concrete tensor encoders.
 */

#include "format/encode.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "common/mathutil.hh"

namespace sparseloop {

namespace {

/** Encoding context shared by the recursive walk. */
struct Encoder
{
    const TensorFormat &format;
    std::vector<std::int64_t> rank_shapes;   ///< per format rank
    std::vector<std::int64_t> elems_below;   ///< per format rank
    EncodedTensor out;

    int rankCount() const
    {
        return static_cast<int>(format.rankCount());
    }

    /** Cost of a materialized fiber whose subtree is entirely zero. */
    void
    addEmptyFiber(int level)
    {
        if (level >= rankCount()) {
            return;
        }
        const RankFormat &rf = format.ranks()[level];
        std::int64_t shape = rank_shapes[level];
        switch (rf.kind) {
          case RankFormatKind::U:
          case RankFormatKind::UB:
            if (rf.kind == RankFormatKind::UB) {
                out.per_rank_metadata_bits[level] += shape;
            }
            if (level + 1 == rankCount()) {
                out.data_words += shape;  // explicit zeros stored
            } else {
                for (std::int64_t i = 0; i < shape; ++i) {
                    addEmptyFiber(level + 1);
                }
            }
            break;
          case RankFormatKind::B:
            out.per_rank_metadata_bits[level] += shape;
            break;
          case RankFormatKind::CP:
          case RankFormatKind::RLE:
            break;  // zero entries
          case RankFormatKind::UOP:
            out.per_rank_metadata_bits[level] +=
                static_cast<std::int64_t>(shape + 1) *
                (rf.explicit_bits > 0
                     ? rf.explicit_bits
                     : std::max(1, math::ceilLog2(
                           shape * elems_below[level] + 1)));
            break;
        }
    }

    /**
     * Encode one fiber from sorted reshaped nonzero points sharing a
     * coordinate prefix above @p level.
     */
    void
    walk(const std::vector<Point> &pts, std::size_t begin,
         std::size_t end, int level)
    {
        const RankFormat &rf = format.ranks()[level];
        std::int64_t shape = rank_shapes[level];
        const bool leaf = level + 1 == rankCount();

        // Group by the coordinate at this level.
        std::vector<std::pair<std::size_t, std::size_t>> groups;
        std::vector<std::int64_t> coords;
        std::size_t i = begin;
        while (i < end) {
            std::int64_t c = pts[i][level];
            std::size_t j = i;
            while (j < end && pts[j][level] == c) {
                ++j;
            }
            groups.emplace_back(i, j);
            coords.push_back(c);
            i = j;
        }
        auto occ = static_cast<std::int64_t>(groups.size());

        switch (rf.kind) {
          case RankFormatKind::U:
          case RankFormatKind::UB: {
            if (rf.kind == RankFormatKind::UB) {
                out.per_rank_metadata_bits[level] += shape;
            }
            if (leaf) {
                out.data_words += shape;  // dense payload row
            } else {
                // All coordinates materialize a child fiber.
                std::size_t g = 0;
                for (std::int64_t c = 0; c < shape; ++c) {
                    if (g < groups.size() && coords[g] == c) {
                        walk(pts, groups[g].first, groups[g].second,
                             level + 1);
                        ++g;
                    } else {
                        addEmptyFiber(level + 1);
                    }
                }
            }
            return;
          }
          case RankFormatKind::B:
            out.per_rank_metadata_bits[level] += shape;
            break;
          case RankFormatKind::CP:
            out.per_rank_metadata_bits[level] +=
                occ * rf.metadataBits(shape);
            break;
          case RankFormatKind::RLE: {
            int bits = rf.metadataBits(shape);
            std::int64_t max_run = (1LL << bits) - 1;
            std::int64_t entries = 0;
            std::int64_t prev = -1;
            for (auto c : coords) {
                std::int64_t gap = c - prev - 1;
                // Runs longer than the encodable maximum insert
                // explicit zero-payload entries.
                std::int64_t pads = gap / (max_run + 1);
                entries += pads + 1;
                if (leaf) {
                    out.data_words += pads;  // padding zeros stored
                }
                prev = c;
            }
            out.per_rank_metadata_bits[level] += entries * bits;
            break;
          }
          case RankFormatKind::UOP:
            out.per_rank_metadata_bits[level] +=
                static_cast<std::int64_t>(shape + 1) *
                (rf.explicit_bits > 0
                     ? rf.explicit_bits
                     : std::max(1, math::ceilLog2(
                           shape * elems_below[level] + 1)));
            break;
        }

        // Compressed ranks: only non-empty coordinates continue.
        for (const auto &[b, e] : groups) {
            if (leaf) {
                out.data_words += 1;
            } else {
                walk(pts, b, e, level + 1);
            }
        }
    }
};

} // namespace

EncodedTensor
encodeTensor(const SparseTensor &tensor, const TensorFormat &format)
{
    const int fr = static_cast<int>(format.rankCount());
    const int tr = static_cast<int>(tensor.rankCount());

    // Adapt tensor rank extents to the format's ranks.
    std::vector<std::int64_t> tensor_shape(tensor.shape().begin(),
                                           tensor.shape().end());
    auto rank_shapes = format.flattenExtents(tensor_shape);

    // Reshape nonzero coordinates to the format ranks: pad outer
    // coordinates with 0, flatten extra inner ranks row-major.
    std::vector<Point> pts;
    for (const auto &p : tensor.sortedNonzeroPoints()) {
        Point q(fr, 0);
        if (tr <= fr) {
            for (int r = 0; r < tr; ++r) {
                q[fr - tr + r] = p[r];
            }
        } else {
            for (int r = 0; r + 1 < fr; ++r) {
                q[r] = p[r];
            }
            std::int64_t flat = 0;
            for (int r = fr - 1; r < tr; ++r) {
                flat = flat * tensor.shape()[r] + p[r];
            }
            q[fr - 1] = flat;
        }
        pts.push_back(std::move(q));
    }
    std::sort(pts.begin(), pts.end());

    Encoder enc{format, rank_shapes, {}, {}};
    enc.elems_below.resize(fr, 1);
    for (int r = fr - 2; r >= 0; --r) {
        enc.elems_below[r] = enc.elems_below[r + 1] * rank_shapes[r + 1];
    }
    enc.out.per_rank_metadata_bits.assign(fr, 0);
    if (pts.empty()) {
        enc.addEmptyFiber(0);
    } else {
        enc.walk(pts, 0, pts.size(), 0);
    }
    return enc.out;
}

} // namespace sparseloop
