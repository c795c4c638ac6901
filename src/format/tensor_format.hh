/**
 * @file
 * Hierarchical tensor representation formats (Table 2): a stack of
 * per-rank formats, top (outermost) rank first, e.g. CSR = UOP-CP,
 * CSB = UOP-CP-CP, 2D COO = CP^2 (flattened). The format analyzer
 * combines these with a statistical density model to derive expected
 * and worst-case storage/metadata overheads for tiles (Sec. 5.3.3).
 */

#ifndef SPARSELOOP_FORMAT_TENSOR_FORMAT_HH
#define SPARSELOOP_FORMAT_TENSOR_FORMAT_HH

#include <string>
#include <vector>

#include "common/logging.hh"
#include "density/density_model.hh"
#include "format/rank_format.hh"

namespace sparseloop {

/** Expected storage cost of one tile in a given format. */
struct TileFormatStats
{
    /** Payload slots actually stored (values, incl. explicit zeros). */
    double data_words = 0.0;
    /** Total metadata bits across ranks. */
    double metadata_bits = 0.0;
    /** Per-rank metadata bits (top first). */
    std::vector<double> per_rank_metadata_bits;
    /** Dense element count of the tile. */
    std::int64_t dense_words = 0;

    /** metadata expressed in data-word units. */
    double metadataWords(int data_bits) const
    {
        return data_bits <= 0 ? 0.0 : metadata_bits / data_bits;
    }
    /** Total occupied bits (payload + metadata). */
    double totalBits(int data_bits) const
    {
        return data_words * data_bits + metadata_bits;
    }
    /** Dense bits / encoded bits; > 1 means the format saves space. */
    double compressionRate(int data_bits) const
    {
        double enc = totalBits(data_bits);
        return enc <= 0.0
            ? 1.0
            : static_cast<double>(dense_words) * data_bits / enc;
    }
};

/**
 * Optional cross-call memo for DensityModel::probEmpty keyed by
 * subtile volume. probEmpty is a pure function of (model, volume), so
 * a caller analyzing several tiles of the SAME tensor may share one
 * memo across tileStatsPair calls to skip repeated evaluations — a
 * hit returns the identical double the recomputation would produce.
 * Never share a memo across different density models. Fixed capacity:
 * once full, further distinct volumes are simply recomputed.
 */
struct ProbEmptyMemo
{
    static constexpr int kCapacity = 8;
    int count = 0;
    std::int64_t volumes[kCapacity] = {};
    double p_empty[kCapacity] = {};

    bool lookup(std::int64_t volume, double &out) const
    {
        for (int i = 0; i < count; ++i) {
            if (volumes[i] == volume) {
                out = p_empty[i];
                return true;
            }
        }
        return false;
    }
    void insert(std::int64_t volume, double p)
    {
        if (count < kCapacity) {
            volumes[count] = volume;
            p_empty[count] = p;
            ++count;
        }
    }
};

/** Which occupancy estimate drives the stats. */
enum class OccupancyEstimate
{
    Expected,  ///< mean occupancy (traffic/energy analysis)
    WorstCase, ///< max occupancy (capacity / mapping validity)
};

class TensorFormat
{
  public:
    TensorFormat() = default;
    explicit TensorFormat(std::vector<RankFormat> ranks,
                          std::string name = "");

    bool empty() const { return ranks_.empty(); }
    std::size_t rankCount() const { return ranks_.size(); }
    const std::vector<RankFormat> &ranks() const { return ranks_; }
    const std::string &name() const { return name_; }

    /** Whether any rank compresses away zero coordinates. */
    bool anyCompressed() const;

    /**
     * Storage statistics for a tile.
     *
     * @param model density model of the full tensor.
     * @param rank_extents tile extents per *format* rank, top first.
     *        Use flattenExtents() to adapt tensor-rank extents.
     * @param estimate expected vs. worst-case occupancy.
     */
    TileFormatStats tileStats(const DensityModel &model,
                              const std::vector<std::int64_t> &rank_extents,
                              OccupancyEstimate estimate =
                                  OccupancyEstimate::Expected) const;

    /**
     * Adapt per-tensor-rank tile extents (outer first) to this format's
     * rank count: extra inner tensor ranks are flattened into the
     * format's last rank; missing outer ranks are padded with 1. A
     * format without ranks is a user error (FatalError).
     */
    std::vector<std::int64_t>
    flattenExtents(const std::vector<std::int64_t> &tensor_extents) const
    {
        std::vector<std::int64_t> out;
        flattenExtentsInto(tensor_extents.data(), tensor_extents.size(),
                           out);
        return out;
    }

    /**
     * flattenExtents() into caller-owned storage: fills @p out (any
     * vector-like type with assign/operator[]), so the engine hot path
     * keeps the extents inline.
     */
    template <class Vec>
    void flattenExtentsInto(const std::int64_t *tensor_extents,
                            std::size_t count, Vec &out) const
    {
        std::size_t fr = ranks_.size();
        if (fr == 0) {
            SL_FATAL("tensor format has no ranks");
        }
        out.assign(fr, 1);
        if (count <= fr) {
            // Pad missing outer ranks with extent 1.
            for (std::size_t i = 0; i < count; ++i) {
                out[fr - count + i] = tensor_extents[i];
            }
            return;
        }
        // Flatten the extra inner tensor ranks into the last format rank.
        for (std::size_t i = 0; i + 1 < fr; ++i) {
            out[i] = tensor_extents[i];
        }
        std::int64_t flat = 1;
        for (std::size_t i = fr - 1; i < count; ++i) {
            flat *= tensor_extents[i];
        }
        out[fr - 1] = flat;
    }

    /**
     * Compute the Expected and WorstCase estimates in a single rank
     * sweep, writing into caller-owned stats (whose vectors keep their
     * capacity across calls). Bit-identical to two tileStats() calls:
     * the two estimates share every input-derived quantity (dense tile
     * size, per-rank subtile volumes, max occupancy, probEmpty of the
     * deepest compressed subtile) and differ only in the materialized-
     * unit recurrence, which this method carries as two independent
     * chains with the exact per-call arithmetic. @p memo optionally
     * caches probEmpty across calls that share a density model.
     */
    void tileStatsPair(const DensityModel &model,
                       const std::int64_t *rank_extents, std::size_t count,
                       TileFormatStats &expected,
                       TileFormatStats &worst,
                       ProbEmptyMemo *memo = nullptr) const;

    /** Metadata words moved per stored data word for a tile. */
    double metadataWordsPerDataWord(const DensityModel &model,
                                    const std::vector<std::int64_t>
                                        &rank_extents,
                                    int data_bits) const;

    /**
     * Evaluation-cache identity: hashes the per-rank format kinds and
     * explicit bit widths. The display name is ignored — formats with
     * identical rank stacks behave identically.
     */
    std::uint64_t signature() const;

  private:
    std::vector<RankFormat> ranks_;
    std::string name_;
};

/** @name Classic format factories (Table 2). */
/// @{
TensorFormat makeUncompressed(std::size_t rank_count = 1);
TensorFormat makeBitmask(std::size_t rank_count = 1);
TensorFormat makeUncompressedBitmask(std::size_t rank_count = 1);
TensorFormat makeCsr();                 ///< UOP-CP
TensorFormat makeCoo(std::size_t flattened_ranks = 2); ///< CP^n
TensorFormat makeCsb();                 ///< UOP-CP-CP
TensorFormat makeCsf(std::size_t rank_count = 3); ///< CP-CP-CP
TensorFormat makeRunLength(std::size_t rank_count = 1,
                           int run_bits = 0);
TensorFormat makeCoordinateList(int coord_bits = 0); ///< 1-rank CP
/// @}

} // namespace sparseloop

#endif // SPARSELOOP_FORMAT_TENSOR_FORMAT_HH
