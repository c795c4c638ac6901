/**
 * @file
 * Tests for mappings and the dense dataflow analysis, checked against
 * hand-computed traffic for small matrix multiplications.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "dataflow/dense_traffic.hh"
#include "mapping/mapping.hh"
#include "workload/builders.hh"

namespace sparseloop {
namespace {

Architecture
twoLevelArch(std::int64_t fanout = 1)
{
    StorageLevelSpec dram;
    dram.name = "DRAM";
    dram.storage_class = StorageClass::DRAM;
    StorageLevelSpec buf;
    buf.name = "Buffer";
    buf.capacity_words = 1 << 20;
    buf.fanout = fanout;
    dram.fanout = fanout;  // fanout to buffers handled at DRAM level
    return Architecture("two-level", {dram, buf}, ComputeSpec{});
}

TEST(Mapping, ValidateRejectsWrongProducts)
{
    Workload w = makeMatmul(4, 4, 4);
    Architecture arch = twoLevelArch();
    MappingBuilder b(w, arch);
    b.temporal(0, "M", 2).temporal(1, "K", 4).temporal(1, "N", 4);
    EXPECT_THROW(b.build(), FatalError);  // M covers only 2 of 4
}

TEST(Mapping, BuildCompleteAddsResiduals)
{
    Workload w = makeMatmul(4, 4, 4);
    Architecture arch = twoLevelArch();
    Mapping m = MappingBuilder(w, arch)
                    .temporal(1, "K", 4)
                    .temporal(1, "N", 2)
                    .buildComplete();
    m.validate(w, arch);  // must not throw
    // Residual M=4 and N=2 loops land at level 0.
    auto tiles0 = m.dimTilesAtLevel(w, 0);
    EXPECT_EQ(tiles0[w.dimIndex("M")], 4);
    EXPECT_EQ(tiles0[w.dimIndex("N")], 4);
}

TEST(Mapping, SpatialFanoutLimitEnforced)
{
    Workload w = makeMatmul(4, 4, 4);
    Architecture arch = twoLevelArch(2);
    MappingBuilder b(w, arch);
    b.spatial(0, "N", 4).temporal(1, "M", 4).temporal(1, "K", 4);
    EXPECT_THROW(b.build(), FatalError);  // fanout 4 > limit 2
}

TEST(Mapping, BuilderLevelOutOfRangeIsFatal)
{
    Workload w = makeMatmul(4, 4, 4);
    Architecture arch = twoLevelArch();
    MappingBuilder b(w, arch);
    EXPECT_THROW(b.temporal(2, "M", 4), FatalError);
    EXPECT_THROW(b.spatial(-1, "M", 4), FatalError);
    EXPECT_THROW(b.keepOnly(2, {"A"}), FatalError);
}

TEST(Mapping, InstanceCounting)
{
    Workload w = makeMatmul(4, 4, 4);
    Architecture arch = twoLevelArch(4);
    Mapping m = MappingBuilder(w, arch)
                    .spatial(0, "N", 4)
                    .temporal(0, "M", 4)
                    .temporal(1, "K", 4)
                    .buildComplete();
    EXPECT_EQ(m.instancesAtLevel(0), 1);
    EXPECT_EQ(m.instancesAtLevel(1), 4);
    EXPECT_EQ(m.computeInstances(), 4);
}

/**
 * Hand-checked case 1: matmul 4x4x4, no spatial loops.
 *   L0(DRAM): for m in [0:4)
 *   L1(Buf):  for n in [0:4) / for k in [0:4)
 * Buffer holds one A row (4), all of B (16), one Z row (4).
 */
TEST(Dataflow, HandComputedTemporalCase)
{
    Workload w = makeMatmul(4, 4, 4);
    Architecture arch = twoLevelArch();
    Mapping m = MappingBuilder(w, arch)
                    .temporal(0, "M", 4)
                    .temporal(1, "N", 4)
                    .temporal(1, "K", 4)
                    .build();
    DenseTraffic d = NestAnalysis(w, arch, m).analyze();
    int A = w.tensorIndex("A"), B = w.tensorIndex("B"),
        Z = w.tensorIndex("Z");

    EXPECT_DOUBLE_EQ(d.computes, 64.0);
    EXPECT_DOUBLE_EQ(d.at(1, A).footprint, 4.0);
    EXPECT_DOUBLE_EQ(d.at(1, B).footprint, 16.0);
    EXPECT_DOUBLE_EQ(d.at(1, Z).footprint, 4.0);

    // A rows stream in once per m iteration: 4 x 4 = 16 fills.
    EXPECT_DOUBLE_EQ(d.at(1, A).fills, 16.0);
    EXPECT_DOUBLE_EQ(d.at(0, A).reads, 16.0);
    // B is irrelevant to the outer m loop: loaded exactly once.
    EXPECT_DOUBLE_EQ(d.at(1, B).fills, 16.0);
    EXPECT_DOUBLE_EQ(d.at(0, B).reads, 16.0);
    // Each output element drains exactly once.
    EXPECT_DOUBLE_EQ(d.at(1, Z).drains, 16.0);
    EXPECT_DOUBLE_EQ(d.at(0, Z).updates, 16.0);
    EXPECT_DOUBLE_EQ(d.at(0, Z).acc_reads, 0.0);
    // Operand reads serving compute: one per MAC.
    EXPECT_DOUBLE_EQ(d.at(1, A).reads, 64.0);
    EXPECT_DOUBLE_EQ(d.at(1, B).reads, 64.0);
    // The innermost k loop accumulates in the MAC register, so the
    // buffer sees one update per (m, n).
    EXPECT_DOUBLE_EQ(d.at(1, Z).updates, 16.0);
    EXPECT_DOUBLE_EQ(d.at(1, Z).acc_reads, 0.0);
}

/**
 * Hand-checked case 2: spatial distribution of N across 4 buffers.
 *   L0(DRAM): par-for n1 in [0:4) / for m in [0:4)
 *   L1(Buf):  for k in [0:4)
 * A is broadcast (multicast 4), B is partitioned.
 */
TEST(Dataflow, HandComputedSpatialCase)
{
    Workload w = makeMatmul(4, 4, 4);
    Architecture arch = twoLevelArch(4);
    Mapping m = MappingBuilder(w, arch)
                    .spatial(0, "N", 4)
                    .temporal(0, "M", 4)
                    .temporal(1, "K", 4)
                    .build();
    DenseTraffic d = NestAnalysis(w, arch, m).analyze();
    int A = w.tensorIndex("A"), B = w.tensorIndex("B"),
        Z = w.tensorIndex("Z");

    EXPECT_EQ(d.instances[1], 4);
    // Each buffer instance receives each A row (4 elements x 4 rows);
    // 4 instances x 16 = 64 total fills, but DRAM reads only 16 thanks
    // to multicast.
    EXPECT_DOUBLE_EQ(d.at(1, A).fills, 64.0);
    EXPECT_DOUBLE_EQ(d.at(0, A).reads, 16.0);
    // B: each instance holds its own column tile; 16 total.
    EXPECT_DOUBLE_EQ(d.at(1, B).fills, 16.0);
    EXPECT_DOUBLE_EQ(d.at(0, B).reads, 16.0);
    // Z: 4 instances x 4 m-iterations x 1 element = 16 drains.
    EXPECT_DOUBLE_EQ(d.at(1, Z).drains, 16.0);
    EXPECT_DOUBLE_EQ(d.at(0, Z).updates, 16.0);
}

/** Conservation: parent reads x multicast == child fills. */
TEST(Dataflow, MulticastConservation)
{
    Workload w = makeMatmul(8, 8, 8);
    Architecture arch = twoLevelArch(8);
    Mapping m = MappingBuilder(w, arch)
                    .spatial(0, "M", 8)
                    .temporal(0, "K", 2)
                    .temporal(1, "K", 4)
                    .temporal(1, "N", 8)
                    .buildComplete();
    NestAnalysis nest(w, arch, m);
    DenseTraffic d = nest.analyze();
    for (int t = 0; t < w.tensorCount(); ++t) {
        if (w.tensor(t).is_output) {
            continue;
        }
        double mcast = nest.multicastFactor(t, 0, 1);
        EXPECT_NEAR(d.at(0, t).reads * mcast, d.at(1, t).fills, 1e-6)
            << w.tensor(t).name;
    }
}

/** Accumulation reads appear when reduction loops sit above a level. */
TEST(Dataflow, PartialSumReadModifyWrite)
{
    Workload w = makeMatmul(4, 8, 4);
    Architecture arch = twoLevelArch();
    // K split across DRAM and Buffer: the outer K loop forces Z tiles
    // to drain and return, costing DRAM read-modify-writes.
    Mapping m = MappingBuilder(w, arch)
                    .temporal(0, "K", 2)
                    .temporal(0, "M", 4)
                    .temporal(1, "N", 4)
                    .temporal(1, "K", 4)
                    .build();
    DenseTraffic d = NestAnalysis(w, arch, m).analyze();
    int Z = w.tensorIndex("Z");
    // Each Z row re-drains per outer-k: 4 m x 2 k x 4 elems = 32.
    EXPECT_DOUBLE_EQ(d.at(0, Z).updates, 32.0);
    // 16 first-writes are free; 16 are read-modify-write.
    EXPECT_DOUBLE_EQ(d.at(0, Z).acc_reads, 16.0);
}

/** Bypass: a tensor not kept on-chip streams from DRAM directly. */
TEST(Dataflow, BypassSkipsLevel)
{
    Workload w = makeMatmul(4, 4, 4);
    Architecture arch = twoLevelArch();
    Mapping kept = MappingBuilder(w, arch)
                       .temporal(0, "M", 4)
                       .temporal(1, "N", 4)
                       .temporal(1, "K", 4)
                       .build();
    MappingBuilder bypass_b(w, arch);
    bypass_b.temporal(0, "M", 4)
        .temporal(1, "N", 4)
        .temporal(1, "K", 4)
        .keepOnly(1, {"A", "Z"});
    Mapping bypassed = bypass_b.build();

    DenseTraffic dk = NestAnalysis(w, arch, kept).analyze();
    DenseTraffic db = NestAnalysis(w, arch, bypassed).analyze();
    int B = w.tensorIndex("B");
    // With bypass, B is not buffered: no fills at level 1 and DRAM
    // serves every compute-level read (64 instead of 16).
    EXPECT_DOUBLE_EQ(db.at(1, B).fills, 0.0);
    EXPECT_DOUBLE_EQ(db.at(0, B).reads, 64.0);
    EXPECT_DOUBLE_EQ(dk.at(0, B).reads, 16.0);
}

/** Dense CONV traffic conserves: compute reads equal MAC count. */
TEST(Dataflow, ConvComputeReadsMatchMacs)
{
    ConvLayerShape s;
    s.k = 4;
    s.c = 4;
    s.p = 4;
    s.q = 4;
    s.r = 3;
    s.s = 3;
    Workload w = makeConv(s);
    Architecture arch = twoLevelArch();
    Mapping m = MappingBuilder(w, arch)
                    .temporal(1, "K", 4)
                    .temporal(1, "C", 4)
                    .temporal(1, "R", 3)
                    .temporal(1, "S", 3)
                    .buildComplete();
    DenseTraffic d = NestAnalysis(w, arch, m).analyze();
    double macs = static_cast<double>(w.denseComputeCount());
    EXPECT_DOUBLE_EQ(d.computes, macs);
    // Weights are read once per MAC at the innermost level (innermost
    // S loop is weight-relevant).
    EXPECT_DOUBLE_EQ(d.at(1, w.tensorIndex("Weights")).reads, macs);
}

/** Property sweep: loop order permutations conserve total computes. */
class OrderSweep : public ::testing::TestWithParam<int>
{};

TEST_P(OrderSweep, ComputesInvariantUnderLoopOrder)
{
    Workload w = makeMatmul(8, 8, 8);
    Architecture arch = twoLevelArch();
    std::vector<std::string> dims{"M", "K", "N"};
    int perm = GetParam();
    std::vector<std::string> order;
    std::vector<int> idx{perm % 3, (perm / 3) % 3};
    // Build distinct inner loop orders.
    MappingBuilder b(w, arch);
    b.temporal(1, dims[idx[0]], 8);
    if (idx[1] != idx[0]) {
        b.temporal(1, dims[idx[1]], 8);
    }
    Mapping m = b.buildComplete();
    DenseTraffic d = NestAnalysis(w, arch, m).analyze();
    EXPECT_DOUBLE_EQ(d.computes, 512.0);
    // DRAM reads never exceed compute reads and never drop below the
    // tensor sizes.
    for (int t = 0; t < 2; ++t) {
        EXPECT_GE(d.at(0, t).reads, 64.0);
        EXPECT_LE(d.at(0, t).reads, 512.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Perms, OrderSweep, ::testing::Range(0, 9));

} // namespace
} // namespace sparseloop
