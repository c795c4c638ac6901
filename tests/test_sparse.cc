/**
 * @file
 * Tests for the sparse modeling step: leader-tile inference (Fig. 10),
 * elimination probabilities, SAF composition, compressed traffic, and
 * compute action breakdowns.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "dataflow/dense_traffic.hh"
#include "density/hypergeometric.hh"
#include "density/structured.hh"
#include "model/engine.hh"
#include "sparse/sparse_analysis.hh"
#include "workload/builders.hh"

namespace sparseloop {
namespace {

Architecture
twoLevelArch(std::int64_t fanout = 1)
{
    StorageLevelSpec dram;
    dram.name = "DRAM";
    dram.storage_class = StorageClass::DRAM;
    dram.fanout = fanout;
    StorageLevelSpec buf;
    buf.name = "Buffer";
    buf.capacity_words = 1 << 20;
    return Architecture("two-level", {dram, buf}, ComputeSpec{});
}

struct Scenario
{
    Workload w;
    Architecture arch;
    Mapping mapping;
    int A, B, Z;

    Scenario(bool k_innermost, double dA = 0.25, double dB = 1.0)
        : w(makeMatmul(4, 4, 4)), arch(twoLevelArch())
    {
        A = w.tensorIndex("A");
        B = w.tensorIndex("B");
        Z = w.tensorIndex("Z");
        bindUniformDensities(w, {{"A", dA}});
        if (dB < 1.0) {
            bindUniformDensities(w, {{"B", dB}});
        }
        MappingBuilder b(w, arch);
        b.temporal(0, "N", 4);
        if (k_innermost) {
            // Fig. 10 Mapping 1: for m / for k (innermost).
            b.temporal(1, "M", 4).temporal(1, "K", 4);
        } else {
            // Fig. 10 Mapping 2: for k / for m (innermost).
            b.temporal(1, "K", 4).temporal(1, "M", 4);
        }
        mapping = b.build();
    }
};

TEST(LeaderTile, Fig10Mapping1PointLeader)
{
    // Innermost k loop iterates pairs: leader is a single A value.
    Scenario s(true);
    SafSpec safs;
    safs.addSkip(1, s.B, {s.A});
    SparseAnalysis an(s.w, s.arch, s.mapping, safs);
    auto tiles = an.leaderRegionDimTiles(safs.intersections[0]);
    EXPECT_EQ(tiles, (std::vector<std::int64_t>{1, 1, 1}));
    // P(eliminate) = P(single A element zero) = 1 - dA.
    EXPECT_NEAR(an.eliminationProbability(safs.intersections[0]), 0.75,
                1e-9);
}

TEST(LeaderTile, Fig10Mapping2ColumnLeader)
{
    // Innermost m loop reuses B across a column of A: the leader is
    // the 4-element A column.
    Scenario s(false);
    SafSpec safs;
    safs.addSkip(1, s.B, {s.A});
    SparseAnalysis an(s.w, s.arch, s.mapping, safs);
    auto tiles = an.leaderRegionDimTiles(safs.intersections[0]);
    EXPECT_EQ(tiles[s.w.dimIndex("M")], 4);
    EXPECT_EQ(tiles[s.w.dimIndex("K")], 1);
    // 4-element column from a 16-element tensor with 4 nonzeros.
    HypergeometricDensity ref(16, 0.25);
    EXPECT_NEAR(an.eliminationProbability(safs.intersections[0]),
                ref.probEmpty(4), 1e-9);
}

TEST(LeaderTile, ColumnLeaderEliminatesLess)
{
    // The paper's Fig. 10 point: mapping 2 eliminates fewer IneffOps.
    Scenario s1(true), s2(false);
    SafSpec safs1, safs2;
    safs1.addSkip(1, s1.B, {s1.A});
    safs2.addSkip(1, s2.B, {s2.A});
    double p1 = SparseAnalysis(s1.w, s1.arch, s1.mapping, safs1)
                    .eliminationProbability(safs1.intersections[0]);
    double p2 = SparseAnalysis(s2.w, s2.arch, s2.mapping, safs2)
                    .eliminationProbability(safs2.intersections[0]);
    EXPECT_GT(p1, p2);
}

TEST(LeaderTile, RejectsOutOfRangeLeader)
{
    // A leader index outside the tensor list is a malformed spec: it
    // fails with a FatalError naming the leader, both when the Step-2
    // analysis is built and through the engine, instead of reading
    // past the tensor list. A format SAF whose format has no ranks
    // fails the same way instead of writing before its extent buffer.
    Scenario s(true);
    Engine engine(s.arch);
    std::vector<std::pair<SafSpec, std::string>> cases;
    for (int leader : {7, -1}) {
        SafSpec safs;
        safs.addSkip(1, s.B, {leader});
        cases.emplace_back(safs,
                           "leader tensor " + std::to_string(leader));
    }
    SafSpec rankless;
    rankless.addFormat(0, s.A, TensorFormat());
    cases.emplace_back(rankless, "has no ranks");
    for (const auto &[safs, named] : cases) {
        SCOPED_TRACE(named);
        try {
            SparseAnalysis an(s.w, s.arch, s.mapping, safs);
            FAIL() << "SparseAnalysis accepted the spec";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find(named),
                      std::string::npos)
                << err.what();
        }
        try {
            engine.evaluate(s.w, s.mapping, safs);
            FAIL() << "Engine::evaluate accepted the spec";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find(named),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(SparseTraffic, SkipSplitsReads)
{
    Scenario s(true, 0.25);
    SafSpec safs;
    safs.addSkip(1, s.B, {s.A});
    DenseTraffic dense = NestAnalysis(s.w, s.arch, s.mapping).analyze();
    SparseTraffic sp =
        SparseAnalysis(s.w, s.arch, s.mapping, safs).analyze(dense);
    const auto &b = sp.at(1, s.B);
    // Total preserved; 75% skipped.
    EXPECT_NEAR(b.reads.total(), dense.at(1, s.B).reads, 1e-9);
    EXPECT_NEAR(b.reads.skipped, dense.at(1, s.B).reads * 0.75, 1e-9);
    EXPECT_NEAR(b.reads.actual, dense.at(1, s.B).reads * 0.25, 1e-9);
    EXPECT_DOUBLE_EQ(b.reads.gated, 0.0);
}

TEST(SparseTraffic, GateSplitsToGatedBucket)
{
    Scenario s(true, 0.25);
    SafSpec safs;
    safs.addGate(1, s.B, {s.A});
    DenseTraffic dense = NestAnalysis(s.w, s.arch, s.mapping).analyze();
    SparseTraffic sp =
        SparseAnalysis(s.w, s.arch, s.mapping, safs).analyze(dense);
    const auto &b = sp.at(1, s.B);
    EXPECT_NEAR(b.reads.gated, dense.at(1, s.B).reads * 0.75, 1e-9);
    EXPECT_DOUBLE_EQ(b.reads.skipped, 0.0);
}

TEST(SparseTraffic, ComputeFollowsOperandSkip)
{
    Scenario s(true, 0.25);
    SafSpec safs;
    safs.addSkip(1, s.B, {s.A});
    DenseTraffic dense = NestAnalysis(s.w, s.arch, s.mapping).analyze();
    SparseTraffic sp =
        SparseAnalysis(s.w, s.arch, s.mapping, safs).analyze(dense);
    // Computes in the A=0 region are skipped with the B reads.
    EXPECT_NEAR(sp.computes.skipped, 64.0 * 0.75, 1e-9);
    EXPECT_NEAR(sp.computes.actual, 64.0 * 0.25, 1e-9);
}

TEST(SparseTraffic, DoubleSidedClampsAtEffectual)
{
    // Skip A<->B with both sparse: compute survival clamps at dA*dB.
    Scenario s(true, 0.5, 0.5);
    SafSpec safs;
    safs.addDoubleSided(SafKind::Skip, 1, s.A, s.B);
    DenseTraffic dense = NestAnalysis(s.w, s.arch, s.mapping).analyze();
    SparseTraffic sp =
        SparseAnalysis(s.w, s.arch, s.mapping, safs).analyze(dense);
    EXPECT_NEAR(sp.computes.actual, 64.0 * 0.25, 1e-9);
    EXPECT_NEAR(sp.effectual_computes, 64.0 * 0.25, 1e-9);
}

TEST(SparseTraffic, ComputeSafGatesLeftovers)
{
    // Skip B<-A leaves B-zero ineffectuals; GateCompute catches them.
    Scenario s(true, 0.5, 0.5);
    SafSpec safs;
    safs.addSkip(1, s.B, {s.A}).addComputeSaf(SafKind::Gate);
    DenseTraffic dense = NestAnalysis(s.w, s.arch, s.mapping).analyze();
    SparseTraffic sp =
        SparseAnalysis(s.w, s.arch, s.mapping, safs).analyze(dense);
    // Survive skip: dA = 0.5; effectual = 0.25; gated = 0.25.
    EXPECT_NEAR(sp.computes.skipped, 32.0, 1e-9);
    EXPECT_NEAR(sp.computes.gated, 16.0, 1e-9);
    EXPECT_NEAR(sp.computes.actual, 16.0, 1e-9);
}

TEST(SparseTraffic, CompressionScalesTrafficAndAddsMetadata)
{
    Scenario s(true, 0.25);
    SafSpec safs;
    safs.addFormat(0, s.A, makeCsr());
    DenseTraffic dense = NestAnalysis(s.w, s.arch, s.mapping).analyze();
    SparseTraffic sp =
        SparseAnalysis(s.w, s.arch, s.mapping, safs).analyze(dense);
    const auto &a0 = sp.at(0, s.A);
    // DRAM reads of A scale with density; metadata reads appear.
    EXPECT_NEAR(a0.reads.actual, dense.at(0, s.A).reads * 0.25, 0.5);
    EXPECT_GT(a0.meta_reads, 0.0);
    // Uncompressed at the buffer: unscaled.
    EXPECT_NEAR(sp.at(1, s.A).fills.actual, dense.at(1, s.A).fills,
                1e-9);
}

TEST(SparseTraffic, FormatReducesTileFootprint)
{
    Scenario s(true, 0.25);
    SafSpec safs;
    safs.addFormat(1, s.B, makeCsr());
    bindUniformDensities(s.w, {{"B", 0.1}});
    DenseTraffic dense = NestAnalysis(s.w, s.arch, s.mapping).analyze();
    SparseTraffic sp =
        SparseAnalysis(s.w, s.arch, s.mapping, safs).analyze(dense);
    EXPECT_LT(sp.at(1, s.B).tile_data_words,
              sp.at(1, s.B).tile_dense_words);
    EXPECT_GT(sp.at(1, s.B).tile_metadata_words, 0.0);
    // Worst case at least the expected footprint.
    EXPECT_GE(sp.at(1, s.B).tile_worst_words,
              sp.at(1, s.B).tile_data_words);
}

TEST(SparseTraffic, OutputUpdatesFollowComputeBreakdown)
{
    Scenario s(true, 0.25);
    SafSpec safs;
    safs.addSkip(1, s.B, {s.A});
    DenseTraffic dense = NestAnalysis(s.w, s.arch, s.mapping).analyze();
    SparseTraffic sp =
        SparseAnalysis(s.w, s.arch, s.mapping, safs).analyze(dense);
    const auto &z = sp.at(1, s.Z);
    double actual_frac = z.updates.actual / z.updates.total();
    EXPECT_NEAR(actual_frac, 0.25, 1e-9);
}

TEST(SparseTraffic, NoSafsMeansAllActual)
{
    Scenario s(true, 0.25);
    SafSpec none;
    DenseTraffic dense = NestAnalysis(s.w, s.arch, s.mapping).analyze();
    SparseTraffic sp =
        SparseAnalysis(s.w, s.arch, s.mapping, none).analyze(dense);
    EXPECT_DOUBLE_EQ(sp.computes.actual, 64.0);
    EXPECT_DOUBLE_EQ(sp.computes.skipped, 0.0);
    EXPECT_DOUBLE_EQ(sp.computes.gated, 0.0);
    for (int l = 0; l < 2; ++l) {
        for (int t = 0; t < 3; ++t) {
            EXPECT_DOUBLE_EQ(sp.at(l, t).reads.skipped, 0.0);
            EXPECT_DOUBLE_EQ(sp.at(l, t).reads.gated, 0.0);
        }
    }
}

TEST(SparseTraffic, HierarchicalSkipComposesMultiplicatively)
{
    // Skip at DRAM and at the buffer: survival multiplies.
    Scenario s(true, 0.25);
    SafSpec safs;
    safs.addSkip(0, s.B, {s.A}).addSkip(1, s.B, {s.A});
    DenseTraffic dense = NestAnalysis(s.w, s.arch, s.mapping).analyze();
    SparseAnalysis an(s.w, s.arch, s.mapping, safs);
    SparseTraffic sp = an.analyze(dense);
    double p_outer = an.eliminationProbability(safs.intersections[0]);
    double p_inner = an.eliminationProbability(safs.intersections[1]);
    const auto &b1 = sp.at(1, s.B);
    EXPECT_NEAR(b1.reads.actual / b1.reads.total(),
                (1.0 - p_outer) * (1.0 - p_inner), 1e-9);
    // The DRAM-level skip uses a coarser leader tile and eliminates
    // less per access than the buffer-level skip.
    EXPECT_LT(p_outer, p_inner);
}

TEST(SparseTraffic, SkipNeverIncreasesActualTraffic)
{
    for (double d : {0.05, 0.25, 0.5, 0.9}) {
        Scenario s(true, d);
        SafSpec safs;
        safs.addSkip(1, s.B, {s.A});
        DenseTraffic dense =
            NestAnalysis(s.w, s.arch, s.mapping).analyze();
        SparseTraffic sp =
            SparseAnalysis(s.w, s.arch, s.mapping, safs).analyze(dense);
        EXPECT_LE(sp.at(1, s.B).reads.actual,
                  dense.at(1, s.B).reads + 1e-9);
        EXPECT_NEAR(sp.at(1, s.B).reads.total(),
                    dense.at(1, s.B).reads, 1e-6);
    }
}

/** Structured 2:4 weights give deterministic 50% compute skipping. */
TEST(SparseTraffic, StructuredSparsityDeterministicSkip)
{
    Workload w = makeMatmul(16, 16, 16);
    Architecture arch = twoLevelArch();
    w.setDensity("A", makeStructuredDensity(2, 4));
    Mapping m = MappingBuilder(w, arch)
                    .temporal(1, "M", 16)
                    .temporal(1, "N", 16)
                    .temporal(1, "K", 16)
                    .buildComplete();
    SafSpec safs;
    int A = w.tensorIndex("A"), B = w.tensorIndex("B");
    safs.addSkip(1, B, {A});
    DenseTraffic dense = NestAnalysis(w, arch, m).analyze();
    SparseTraffic sp = SparseAnalysis(w, arch, m, safs).analyze(dense);
    EXPECT_NEAR(sp.computes.actual, dense.computes * 0.5, 1e-6);
    EXPECT_NEAR(sp.computes.skipped, dense.computes * 0.5, 1e-6);
}

} // namespace
} // namespace sparseloop
