/**
 * @file
 * End-to-end engine tests: the three modeling steps chained together,
 * capacity validity, latency/energy semantics of gating vs skipping,
 * and the headline STC 2x result.
 */

#include <gtest/gtest.h>

#include "apps/designs.hh"
#include "common/logging.hh"
#include "density/actual_data.hh"
#include "density/structured.hh"
#include "model/engine.hh"
#include "tensor/generate.hh"
#include "workload/builders.hh"

namespace sparseloop {
namespace {

Architecture
smallArch(double buffer_words = 1 << 20, double dram_bw = 16.0)
{
    StorageLevelSpec dram;
    dram.name = "DRAM";
    dram.storage_class = StorageClass::DRAM;
    dram.bandwidth_words_per_cycle = dram_bw;
    StorageLevelSpec buf;
    buf.name = "Buffer";
    buf.capacity_words = buffer_words;
    buf.bandwidth_words_per_cycle = 4.0;
    return Architecture("small", {dram, buf}, ComputeSpec{});
}

Mapping
simpleMapping(const Workload &w, const Architecture &arch)
{
    return MappingBuilder(w, arch)
        .temporal(1, "M", w.dims()[w.dimIndex("M")].bound)
        .temporal(1, "N", w.dims()[w.dimIndex("N")].bound)
        .temporal(1, "K", w.dims()[w.dimIndex("K")].bound)
        .buildComplete();
}

TEST(Engine, DenseBaselineCyclesAndEnergyPositive)
{
    Workload w = makeMatmul(16, 16, 16);
    Architecture arch = smallArch();
    Engine engine(arch);
    EvalResult r = engine.evaluateDense(w, simpleMapping(w, arch));
    EXPECT_TRUE(r.valid);
    EXPECT_GT(r.cycles, 0.0);
    EXPECT_GT(r.energy_pj, 0.0);
    EXPECT_DOUBLE_EQ(r.computes.actual, 16.0 * 16.0 * 16.0);
}

TEST(Engine, SkippingReducesCyclesGatingDoesNot)
{
    Workload w = makeMatmul(16, 16, 16);
    bindUniformDensities(w, {{"A", 0.25}});
    Architecture arch = smallArch();
    Engine engine(arch);
    Mapping m = simpleMapping(w, arch);
    int A = w.tensorIndex("A"), B = w.tensorIndex("B");

    EvalResult dense = engine.evaluateDense(w, m);
    SafSpec skip;
    skip.addSkip(1, B, {A});
    EvalResult skipped = engine.evaluate(w, m, skip);
    SafSpec gate;
    gate.addGate(1, B, {A});
    EvalResult gated = engine.evaluate(w, m, gate);

    // Skipping saves time and energy; gating saves energy only.
    EXPECT_LT(skipped.cycles, dense.cycles);
    EXPECT_LT(skipped.energy_pj, dense.energy_pj);
    EXPECT_NEAR(gated.cycles, dense.cycles, dense.cycles * 1e-9);
    EXPECT_LT(gated.energy_pj, dense.energy_pj);
    // Gated actions still burn some energy: gating saves less than
    // skipping.
    EXPECT_GT(gated.energy_pj, skipped.energy_pj);
}

TEST(Engine, WrongRankActualDataIsFatal)
{
    // A rank-3 tensor bound to the rank-2 A: bad input, not a bug.
    Workload w = makeMatmul(16, 16, 16);
    w.setDensity("A", makeActualDataDensity(std::make_shared<SparseTensor>(
                          generateUniform({2, 8, 16}, 0.3, 1))));
    apps::DesignPoint d = apps::buildBitmaskDesign(w);
    EXPECT_THROW(Engine(d.arch).evaluate(w, d.mapping, d.safs), FatalError);
}

TEST(Engine, CapacityViolationInvalidatesMapping)
{
    Workload w = makeMatmul(64, 64, 64);
    Architecture arch = smallArch(/*buffer_words=*/128);
    Engine engine(arch);
    EvalResult r = engine.evaluateDense(w, simpleMapping(w, arch));
    EXPECT_FALSE(r.valid);
    EXPECT_NE(r.invalid_reason.find("Buffer"), std::string::npos);
}

TEST(Engine, CompressionCanRestoreValidity)
{
    // The same tiles fit once the dominant tensor is compressed:
    // mapping validity depends on format overheads (Sec. 5.4).
    Workload w = makeMatmul(32, 32, 32);
    bindUniformDensities(w, {{"B", 0.05}});
    Architecture arch = smallArch(/*buffer_words=*/2200);
    Engine engine(arch);
    Mapping m = simpleMapping(w, arch);
    EvalResult dense = engine.evaluateDense(w, m);
    EXPECT_FALSE(dense.valid);
    SafSpec safs;
    safs.addFormat(1, w.tensorIndex("B"), makeCsr());
    EvalResult compressed = engine.evaluate(w, m, safs);
    EXPECT_TRUE(compressed.valid) << compressed.invalid_reason;
}

TEST(Engine, BandwidthThrottlingBindsLatency)
{
    Workload w = makeMatmul(16, 16, 16);
    Engine slow_engine(Architecture(
        "slow", {[] {
             StorageLevelSpec d;
             d.name = "DRAM";
             d.storage_class = StorageClass::DRAM;
             d.bandwidth_words_per_cycle = 0.0625;
             return d;
         }(),
         [] {
             StorageLevelSpec b;
             b.name = "Buffer";
             b.capacity_words = 1 << 20;
             b.bandwidth_words_per_cycle = 1e9;
             return b;
         }()},
        ComputeSpec{}));
    Mapping m = simpleMapping(w, slow_engine.architecture());
    EvalResult r = slow_engine.evaluateDense(w, m);
    // DRAM moves |A| + |B| reads plus |Z| updates at 1/16 words/cycle
    // and is the binding bottleneck (compute would need only 4096).
    EXPECT_NEAR(r.cycles, (256.0 * 3) * 16.0, 1e-6);
    EXPECT_NEAR(r.levels[0].cycles, r.cycles, 1e-6);
}

TEST(Engine, StructuredStcGivesExactTwoX)
{
    // Sec. 6.3.5: 2:4 structured sparsity is fully deterministic, so
    // the modeled speedup is exactly 2x over dense processing.
    // The SMEM provisioning is exact at the case-study geometry: the
    // 2:4 design is compute-bound there and hits its ideal speedup.
    Workload dense_w = makeMatmul(256, 768, 256);
    Workload sparse_w = makeMatmul(256, 768, 256);
    sparse_w.setDensity("A", makeStructuredDensity(2, 4));

    apps::DesignPoint stc = apps::buildStc(sparse_w, 2, 4);
    apps::DesignPoint base = apps::buildDenseTensorCore(dense_w);
    Engine stc_engine(stc.arch);
    Engine base_engine(base.arch);
    EvalResult rs = stc_engine.evaluate(sparse_w, stc.mapping, stc.safs);
    EvalResult rd =
        base_engine.evaluate(dense_w, base.mapping, base.safs);
    ASSERT_TRUE(rs.valid);
    ASSERT_TRUE(rd.valid);
    EXPECT_NEAR(rd.cycles / rs.cycles, 2.0, 0.02);
}

TEST(Engine, ReportMentionsLevels)
{
    Workload w = makeMatmul(8, 8, 8);
    Architecture arch = smallArch();
    Engine engine(arch);
    EvalResult r = engine.evaluateDense(w, simpleMapping(w, arch));
    std::string report = formatReport(r, w, arch);
    EXPECT_NE(report.find("DRAM"), std::string::npos);
    EXPECT_NE(report.find("Buffer"), std::string::npos);
    EXPECT_NE(report.find("cycles"), std::string::npos);
}

/** Fig. 1 property: the best format depends on tensor density. */
TEST(Engine, Fig1CrossoverBitmaskVsCoordList)
{
    auto edp = [](const apps::DesignPoint &d, const Workload &w) {
        Engine e(d.arch);
        EvalResult r = e.evaluate(w, d.mapping, d.safs);
        EXPECT_TRUE(r.valid) << d.name << ": " << r.invalid_reason;
        return std::pair<double, double>(r.cycles, r.energy_pj);
    };
    // Low density: coordinate list is faster (skipping) while bitmask
    // keeps dense cycles.
    Workload sparse_w = makeMatmul(64, 64, 64);
    bindUniformDensities(sparse_w, {{"A", 0.1}, {"B", 0.1}});
    auto bm_s = edp(apps::buildBitmaskDesign(sparse_w), sparse_w);
    auto cl_s = edp(apps::buildCoordListDesign(sparse_w), sparse_w);
    EXPECT_LT(cl_s.first, bm_s.first);
    // High density: the coordinate list's multi-bit metadata makes it
    // the less energy-efficient design.
    Workload dense_w = makeMatmul(64, 64, 64);
    bindUniformDensities(dense_w, {{"A", 0.95}, {"B", 0.95}});
    auto bm_d = edp(apps::buildBitmaskDesign(dense_w), dense_w);
    auto cl_d = edp(apps::buildCoordListDesign(dense_w), dense_w);
    EXPECT_LT(bm_d.second, cl_d.second);
}

/** Energy monotonicity: sparser workloads never cost more energy. */
class DensityMonotonicity : public ::testing::TestWithParam<int>
{};

TEST_P(DensityMonotonicity, EnergyDecreasesWithSparsity)
{
    std::vector<double> densities{1.0, 0.5, 0.25, 0.1, 0.05};
    double prev_energy = -1.0;
    bool coord_list = GetParam() == 1;
    for (double d : densities) {
        Workload w = makeMatmul(64, 64, 64);
        bindUniformDensities(w, {{"A", d}, {"B", d}});
        apps::DesignPoint dp = coord_list
            ? apps::buildCoordListDesign(w)
            : apps::buildBitmaskDesign(w);
        Engine e(dp.arch);
        EvalResult r = e.evaluate(w, dp.mapping, dp.safs);
        ASSERT_TRUE(r.valid);
        if (prev_energy >= 0.0) {
            EXPECT_LT(r.energy_pj, prev_energy) << "density " << d;
        }
        prev_energy = r.energy_pj;
    }
}

INSTANTIATE_TEST_SUITE_P(Designs, DensityMonotonicity,
                         ::testing::Values(0, 1));

} // namespace
} // namespace sparseloop
