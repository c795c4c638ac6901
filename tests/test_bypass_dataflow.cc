/**
 * @file
 * Brute-force validation of the keep/bypass axis: for every keep-mask
 * combination on small temporal-only nests, the dense traffic between
 * consecutive keeping levels must match a reference interpreter that
 * counts actual tile transitions at each kept boundary, bypassed
 * levels must carry exactly zero traffic, and the sparse/refsim paths
 * must stay consistent when tensors stream past intermediate buffers.
 */

#include <gtest/gtest.h>

#include <vector>

#include "density/actual_data.hh"
#include "dataflow/dense_traffic.hh"
#include "mapping/mapping.hh"
#include "model/engine.hh"
#include "refsim/cycle_spmspm.hh"
#include "tensor/generate.hh"
#include "common/mathutil.hh"
#include "workload/builders.hh"

namespace sparseloop {
namespace {

Architecture
arch2(std::int64_t buf_words = 1 << 22)
{
    StorageLevelSpec dram;
    dram.name = "DRAM";
    dram.storage_class = StorageClass::DRAM;
    StorageLevelSpec buf;
    buf.name = "Buffer";
    buf.capacity_words = buf_words;
    return Architecture("bypass2", {dram, buf}, ComputeSpec{});
}

Architecture
arch3()
{
    StorageLevelSpec dram;
    dram.name = "DRAM";
    dram.storage_class = StorageClass::DRAM;
    StorageLevelSpec l2;
    l2.name = "L2";
    l2.capacity_words = 1 << 22;
    StorageLevelSpec l1;
    l1.name = "L1";
    l1.capacity_words = 1 << 22;
    return Architecture("bypass3", {dram, l2, l1}, ComputeSpec{});
}

/**
 * Count tile-fill events at a kept boundary: iterate the temporal
 * loops above the boundary in nest order; the tile (identified by its
 * residual origin over the tensor's relevant dimensions) is refetched
 * whenever it differs from the resident one. Keep masks do not change
 * what a boundary *would* transfer — only which boundaries exist.
 */
double
bruteFills(const Workload &w, const Mapping &m, int tensor,
           int boundary_level)
{
    std::vector<Loop> above;
    for (int l = 0; l < boundary_level; ++l) {
        for (const auto &loop : m.level(l).loops) {
            above.push_back(loop);
        }
    }
    auto tiles = m.dimTilesAtLevel(w, boundary_level);
    double footprint = static_cast<double>(
        volume(w.tensorTileExtents(tensor, tiles)));
    if (above.empty()) {
        return footprint;
    }
    std::vector<std::int64_t> idx(above.size(), 0);
    std::vector<std::int64_t> prev_origin;
    double fills = 0.0;
    bool done = false;
    while (!done) {
        std::vector<std::int64_t> origin(w.dimCount(), 0);
        for (std::size_t i = 0; i < above.size(); ++i) {
            origin[above[i].dim] =
                origin[above[i].dim] * above[i].bound + idx[i];
        }
        std::vector<std::int64_t> key;
        for (int d = 0; d < w.dimCount(); ++d) {
            if (w.dimRelevant(tensor, d)) {
                key.push_back(origin[d]);
            }
        }
        if (key != prev_origin) {
            fills += footprint;
            prev_origin = key;
        }
        std::size_t i = above.size();
        while (i-- > 0) {
            if (++idx[i] < above[i].bound) {
                break;
            }
            idx[i] = 0;
            if (i == 0) {
                done = true;
            }
        }
    }
    return fills;
}

/** Operand fetch / accumulator update events at the compute boundary:
 *  one per iteration point whose tensor address changes. */
double
bruteComputeReads(const Workload &w, const Mapping &m, int tensor)
{
    std::vector<Loop> loops;
    for (int l = 0; l < m.levelCount(); ++l) {
        for (const auto &loop : m.level(l).loops) {
            loops.push_back(loop);
        }
    }
    std::vector<std::int64_t> idx(loops.size(), 0);
    Point prev;
    double reads = 0.0;
    bool done = false;
    while (!done) {
        Point it(w.dimCount(), 0);
        for (std::size_t i = 0; i < loops.size(); ++i) {
            it[loops[i].dim] =
                it[loops[i].dim] * loops[i].bound + idx[i];
        }
        Point addr = w.project(tensor, it);
        if (addr != prev || reads == 0.0) {
            reads += 1.0;
            prev = addr;
        }
        std::size_t i = loops.size();
        while (i-- > 0) {
            if (++idx[i] < loops[i].bound) {
                break;
            }
            idx[i] = 0;
            if (i == 0) {
                done = true;
            }
        }
    }
    return reads;
}

/** Keep levels under the mask set: {0} plus every keeping level. */
std::vector<int>
oracleKeepLevels(const Mapping &m, int t)
{
    std::vector<int> ks{0};
    for (int l = 1; l < m.levelCount(); ++l) {
        if (m.level(l).keeps(t)) {
            ks.push_back(l);
        }
    }
    return ks;
}

/**
 * Compare the analytical dense traffic of a temporal-only mapping
 * against the brute-force oracle for every tensor: traffic flows only
 * between consecutive keeping levels, bypassed levels carry zero.
 */
void
expectMatchesOracle(const Workload &w, const Architecture &arch,
                    const Mapping &m, const std::string &ctx)
{
    NestAnalysis nest(w, arch, m);
    DenseTraffic traffic = nest.analyze();
    const int S = m.levelCount();
    for (int t = 0; t < w.tensorCount(); ++t) {
        const bool is_output = w.tensor(t).is_output;
        auto keeps = oracleKeepLevels(m, t);
        // Expected traffic per level, assembled from the oracle.
        std::vector<double> fills(S, 0.0), reads(S, 0.0),
            drains(S, 0.0), updates(S, 0.0), acc(S, 0.0);
        for (std::size_t i = 0; i + 1 < keeps.size(); ++i) {
            int a = keeps[i], b = keeps[i + 1];
            double x = bruteFills(w, m, t, b);
            if (is_output) {
                drains[b] += x;
                updates[a] += x;  // temporal-only: no multicast
            } else {
                fills[b] += x;
                reads[a] += x;
            }
        }
        double compute_x = bruteComputeReads(w, m, t);
        if (is_output) {
            updates[keeps.back()] += compute_x;
        } else {
            reads[keeps.back()] += compute_x;
        }
        if (is_output) {
            for (int a : keeps) {
                acc[a] = std::max(0.0,
                                  updates[a] - bruteFills(w, m, t, a));
            }
        }
        for (int l = 0; l < S; ++l) {
            const auto &rec = traffic.at(l, t);
            EXPECT_DOUBLE_EQ(rec.fills, fills[l])
                << ctx << " fills t=" << t << " l=" << l;
            EXPECT_DOUBLE_EQ(rec.reads, reads[l])
                << ctx << " reads t=" << t << " l=" << l;
            EXPECT_DOUBLE_EQ(rec.drains, drains[l])
                << ctx << " drains t=" << t << " l=" << l;
            EXPECT_DOUBLE_EQ(rec.updates, updates[l])
                << ctx << " updates t=" << t << " l=" << l;
            EXPECT_DOUBLE_EQ(rec.acc_reads, acc[l])
                << ctx << " acc_reads t=" << t << " l=" << l;
            // A bypassed level is completely silent for this tensor.
            if (l > 0 && !m.level(l).keeps(t)) {
                EXPECT_EQ(rec.fills + rec.reads + rec.drains +
                              rec.updates + rec.acc_reads,
                          0.0)
                    << ctx << " bypassed level traffic t=" << t
                    << " l=" << l;
            }
        }
    }
}

/** Attach an explicit keep mask (bit i = tensor i) to a level. */
void
setKeepMask(Mapping &m, int level, const Workload &w, unsigned mask)
{
    std::vector<bool> keep(static_cast<std::size_t>(w.tensorCount()));
    for (int t = 0; t < w.tensorCount(); ++t) {
        keep[static_cast<std::size_t>(t)] = (mask >> t) & 1u;
    }
    m.level(level).keep = std::move(keep);
}

TEST(BypassDataflow, EveryKeepMaskMatchesBruteForceTwoLevels)
{
    Workload w = makeMatmul(4, 6, 2);
    Architecture arch = arch2();
    Mapping base = MappingBuilder(w, arch)
                       .temporal(0, "M", 2)
                       .temporal(0, "K", 2)
                       .temporal(0, "N", 1)
                       .temporal(1, "K", 3)
                       .temporal(1, "M", 2)
                       .temporal(1, "N", 2)
                       .build();
    for (unsigned mask = 0; mask < 8; ++mask) {
        Mapping m = base;
        setKeepMask(m, 1, w, mask);
        expectMatchesOracle(w, arch, m,
                            "mask=" + std::to_string(mask));
    }
}

TEST(BypassDataflow, EveryKeepMaskComboMatchesBruteForceThreeLevels)
{
    Workload w = makeMatmul(4, 4, 2);
    Architecture arch = arch3();
    Mapping base = MappingBuilder(w, arch)
                       .temporal(0, "K", 2)
                       .temporal(0, "M", 2)
                       .temporal(1, "N", 2)
                       .temporal(1, "M", 2)
                       .temporal(2, "K", 2)
                       .build();
    for (unsigned m1 = 0; m1 < 8; ++m1) {
        for (unsigned m2 = 0; m2 < 8; ++m2) {
            Mapping m = base;
            setKeepMask(m, 1, w, m1);
            setKeepMask(m, 2, w, m2);
            expectMatchesOracle(w, arch, m,
                                "m1=" + std::to_string(m1) +
                                    " m2=" + std::to_string(m2));
        }
    }
}

TEST(BypassDataflow, AllBypassBelowBackingStoreKeepsOnlyDram)
{
    // The edge case: every tensor streams straight from DRAM through
    // both on-chip levels. keepLevels must degrade to {0} and the
    // whole compute-boundary traffic lands at the backing store.
    Workload w = makeMatmul(4, 4, 2);
    Architecture arch = arch3();
    Mapping m = MappingBuilder(w, arch)
                    .temporal(0, "K", 2)
                    .temporal(0, "M", 2)
                    .temporal(1, "N", 2)
                    .temporal(1, "M", 2)
                    .temporal(2, "K", 2)
                    .build();
    setKeepMask(m, 1, w, 0);
    setKeepMask(m, 2, w, 0);
    NestAnalysis nest(w, arch, m);
    for (int t = 0; t < w.tensorCount(); ++t) {
        EXPECT_EQ(nest.keepLevels(t), (SmallVector<int, 8>{0}));
        EXPECT_EQ(nest.innermostKeepLevel(t), 0);
    }
    expectMatchesOracle(w, arch, m, "all-bypass");

    DenseTraffic traffic = nest.analyze();
    int A = w.tensorIndex("A"), Z = w.tensorIndex("Z");
    EXPECT_DOUBLE_EQ(traffic.at(0, A).reads, bruteComputeReads(w, m, A));
    EXPECT_DOUBLE_EQ(traffic.at(0, Z).updates,
                     bruteComputeReads(w, m, Z));
}

TEST(BypassDataflow, SparseAccountingFollowsTheInnermostKeepLevel)
{
    // With a skip SAF in play the effectual compute intersection is a
    // property of the workload, not of where tiles are buffered:
    // compute actions must be invariant across keep masks, and the
    // output update/acc-read accounting must move to whatever level is
    // the innermost keeping one.
    Workload w = makeMatmul(16, 16, 16);
    bindUniformDensities(w, {{"A", 0.25}});
    Architecture arch = arch2();
    SafSpec safs;
    safs.addSkip(1, w.tensorIndex("B"), {w.tensorIndex("A")});
    Mapping base = MappingBuilder(w, arch)
                       .temporal(0, "M", 4)
                       .temporal(1, "M", 4)
                       .temporal(1, "K", 16)
                       .temporal(1, "N", 16)
                       .build();
    Engine engine(arch);
    int Z = w.tensorIndex("Z");

    EvalResult keep_all = engine.evaluate(w, base, safs);
    ASSERT_TRUE(keep_all.valid);
    EXPECT_GT(keep_all.sparse.at(1, Z).updates.total(), 0.0);
    EXPECT_EQ(keep_all.sparse.at(0, Z).acc_reads.total(), 0.0);

    // Bypass the output at the buffer: updates and accumulation reads
    // must re-home to DRAM, and the compute breakdown must not move.
    Mapping stream_z = base;
    setKeepMask(stream_z, 1, w,
                (1u << w.tensorIndex("A")) | (1u << w.tensorIndex("B")));
    EvalResult r = engine.evaluate(w, stream_z, safs);
    ASSERT_TRUE(r.valid);
    EXPECT_EQ(r.computes, keep_all.computes);
    EXPECT_EQ(r.sparse.at(1, Z).updates.total(), 0.0);
    EXPECT_EQ(r.sparse.at(1, Z).drains.total(), 0.0);
    EXPECT_GT(r.sparse.at(0, Z).updates.total(), 0.0);
    EXPECT_GE(r.sparse.at(0, Z).acc_reads.total(), 0.0);
    // Bypassed tensors occupy no buffer capacity.
    EXPECT_EQ(r.sparse.at(1, Z).tile_worst_words, 0.0);
    EXPECT_LT(r.peakCapacityWords(), keep_all.peakCapacityWords());
}

TEST(BypassDataflow, BypassTurnsAnOverflowingMappingValid)
{
    // A buffer too small for any tile of B: the keep-all mapping is
    // rejected by the capacity check; bypassing B (streaming it from
    // DRAM) makes the same loop nest valid. This is the mechanism that
    // widens the searchable space when the bypass axis opens.
    Workload w = makeMatmul(4, 64, 64);
    Architecture arch = arch2(/*buf_words=*/256);
    Mapping base = MappingBuilder(w, arch)
                       .temporal(0, "M", 4)
                       .temporal(1, "K", 64)
                       .temporal(1, "N", 64)
                       .build();
    Engine engine(arch);
    EvalResult keep_all = engine.evaluate(w, base, SafSpec{});
    EXPECT_FALSE(keep_all.valid);

    Mapping stream_b = base;
    setKeepMask(stream_b, 1, w,
                (1u << w.tensorIndex("A")) | (1u << w.tensorIndex("Z")));
    EvalResult r = engine.evaluate(w, stream_b, SafSpec{});
    EXPECT_TRUE(r.valid) << r.invalid_reason;
}

TEST(BypassDataflow, RefsimCrossCheckWithOutputStreamedToDram)
{
    // The Sec. 6.3 spMspM validation twin, but with a known bypass
    // configuration: the accumulator stream Z is not buffered on chip.
    // Surviving compute actions are a workload/SAF property, so the
    // analytical count must still track the cycle-level simulator.
    const std::int64_t size = 64;
    for (double density : {0.1, 0.5}) {
        auto a = generateUniform({size, size}, density, 11);
        auto b = generateUniform({size, size}, 1.0, 12);
        refsim::CycleSimConfig cfg;
        cfg.skip_on_a = true;
        cfg.buffer_bw = 2.0;
        auto sim = refsim::CycleLevelSpmspmSim(cfg).run(a, b);

        Workload w = makeMatmul(size, size, size);
        w.setDensity("A", makeActualDataDensity(
                              std::make_shared<SparseTensor>(a)));
        Architecture arch = arch2();
        Mapping m = MappingBuilder(w, arch)
                        .temporal(0, "M", size)
                        .temporal(0, "N", size)
                        .temporal(1, "K", size)
                        .buildComplete();
        setKeepMask(m, 1, w,
                    (1u << w.tensorIndex("A")) |
                        (1u << w.tensorIndex("B")));
        SafSpec safs;
        safs.addSkip(1, w.tensorIndex("B"), {w.tensorIndex("A")});
        EvalResult r = Engine(arch).evaluate(w, m, safs);
        ASSERT_TRUE(r.valid) << r.invalid_reason;
        double err = math::relativeError(
            r.computes.actual, static_cast<double>(sim.cycles));
        EXPECT_LT(err, 0.03) << "density " << density;
    }
}

TEST(BypassDataflow, KeepWithoutReuseIsDominatedByBypass)
{
    // The dominance rule the MapSpace pruning pass relies on: if no
    // loop between a keeping level l and the next-inner keeping level
    // is relevant to the tensor, the kept tile is never reused in
    // time, so bypassing it at l is never worse on any metric. Level 1
    // here runs only M loops, which are irrelevant to B: keeping B at
    // L2 buys nothing over streaming it from DRAM to L1.
    Workload w = makeMatmul(8, 8, 8);
    Architecture arch = arch3();
    Mapping keep_b = MappingBuilder(w, arch)
                         .temporal(0, "M", 4)
                         .temporal(1, "M", 2)
                         .temporal(2, "K", 8)
                         .temporal(2, "N", 8)
                         .build();
    Mapping bypass_b = keep_b;
    setKeepMask(bypass_b, 1, w,
                (1u << w.tensorIndex("A")) | (1u << w.tensorIndex("Z")));
    Engine engine(arch);
    EvalResult rk = engine.evaluate(w, keep_b, SafSpec{});
    EvalResult rb = engine.evaluate(w, bypass_b, SafSpec{});
    ASSERT_TRUE(rk.valid);
    ASSERT_TRUE(rb.valid);
    EXPECT_LE(rb.cycles, rk.cycles);
    EXPECT_LE(rb.energy_pj, rk.energy_pj);
    EXPECT_LE(rb.peakCapacityWords(), rk.peakCapacityWords());
    EXPECT_LE(rb.metadataOverheadWords(), rk.metadataOverheadWords());
    // The inner boundary traffic is unchanged: L1 sees the same fills
    // whether B pauses at L2 or not.
    int B = w.tensorIndex("B");
    EXPECT_DOUBLE_EQ(engine.analyzeDataflow(w, bypass_b).at(2, B).fills,
                     engine.analyzeDataflow(w, keep_b).at(2, B).fills);
}

} // namespace
} // namespace sparseloop
