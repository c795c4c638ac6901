/**
 * @file
 * Tests for the randomized mapspace search.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "mapper/mapper.hh"
#include "workload/builders.hh"

namespace sparseloop {
namespace {

Architecture
searchArch()
{
    StorageLevelSpec dram;
    dram.name = "DRAM";
    dram.storage_class = StorageClass::DRAM;
    dram.bandwidth_words_per_cycle = 16.0;
    dram.fanout = 4;
    StorageLevelSpec buf;
    buf.name = "Buffer";
    buf.capacity_words = 4096;
    buf.bandwidth_words_per_cycle = 8.0;
    return Architecture("search", {dram, buf}, ComputeSpec{});
}

TEST(Mapper, FindsValidMapping)
{
    Workload w = makeMatmul(16, 16, 16);
    Architecture arch = searchArch();
    SafSpec none;
    MapperOptions opts;
    opts.samples = 300;
    Mapper mapper(w, arch, none, opts);
    MapperResult r = mapper.search();
    ASSERT_TRUE(r.found);
    EXPECT_TRUE(r.eval.valid);
    EXPECT_GT(r.candidates_valid, 0);
    // The found mapping covers the whole iteration space.
    r.mapping.validate(w, arch);
    EXPECT_DOUBLE_EQ(r.eval.computes.total(), 4096.0);
}

TEST(Mapper, SearchIsDeterministicForFixedSeed)
{
    Workload w = makeMatmul(16, 16, 16);
    Architecture arch = searchArch();
    SafSpec none;
    MapperOptions opts;
    opts.samples = 200;
    opts.seed = 99;
    MapperResult a = Mapper(w, arch, none, opts).search();
    MapperResult b = Mapper(w, arch, none, opts).search();
    ASSERT_TRUE(a.found);
    ASSERT_TRUE(b.found);
    EXPECT_DOUBLE_EQ(a.eval.edp(), b.eval.edp());
}

TEST(Mapper, MoreSamplesNeverWorse)
{
    Workload w = makeMatmul(32, 32, 32);
    Architecture arch = searchArch();
    SafSpec none;
    MapperOptions few;
    few.samples = 50;
    MapperOptions many;
    many.samples = 800;
    MapperResult a = Mapper(w, arch, none, few).search();
    MapperResult b = Mapper(w, arch, none, many).search();
    ASSERT_TRUE(a.found);
    ASSERT_TRUE(b.found);
    EXPECT_LE(b.eval.edp(), a.eval.edp() + 1e-9);
}

TEST(Mapper, ObjectiveSelectionMatters)
{
    Workload w = makeMatmul(32, 32, 32);
    Architecture arch = searchArch();
    SafSpec none;
    MapperOptions delay_opts;
    delay_opts.objective = ObjectiveSpec::single(Metric::Cycles);
    delay_opts.samples = 400;
    MapperOptions energy_opts;
    energy_opts.objective = ObjectiveSpec::single(Metric::Energy);
    energy_opts.samples = 400;
    MapperResult best_delay = Mapper(w, arch, none, delay_opts).search();
    MapperResult best_energy =
        Mapper(w, arch, none, energy_opts).search();
    ASSERT_TRUE(best_delay.found);
    ASSERT_TRUE(best_energy.found);
    EXPECT_LE(best_delay.eval.cycles, best_energy.eval.cycles + 1e-9);
    EXPECT_LE(best_energy.eval.energy_pj,
              best_delay.eval.energy_pj + 1e-9);
}

TEST(Mapper, HonorsLoopOrderConstraint)
{
    Workload w = makeMatmul(16, 16, 16);
    Architecture arch = searchArch();
    SafSpec none;
    MapspaceConstraints cons;
    cons.levels.resize(2);
    // Buffer level must order loops M (outer) then K (inner); N may
    // not be tiled at the buffer at all.
    cons.levels[1].loop_order = {w.dimIndex("M"), w.dimIndex("K")};
    MapperOptions opts;
    opts.samples = 400;
    Mapper mapper(w, arch, none, opts, cons);
    MapperResult r = mapper.search();
    ASSERT_TRUE(r.found);
    const auto &loops = r.mapping.level(1).loops;
    int last_rank = -1;
    for (const auto &loop : loops) {
        EXPECT_NE(loop.dim, w.dimIndex("N"));
        int rank = loop.dim == w.dimIndex("M") ? 0 : 1;
        EXPECT_GT(rank, last_rank - 1);
        EXPECT_GE(rank, last_rank);
        last_rank = rank;
    }
}

TEST(Mapper, SparseAwareSearchPrefersSkipFriendlyMappings)
{
    // With Skip B <- A, point-leader mappings (inner loop relevant to
    // B) eliminate the most; the mapper should find an EDP at least as
    // good as a hand-written reuse-heavy mapping.
    Workload w = makeMatmul(32, 32, 32);
    bindUniformDensities(w, {{"A", 0.1}});
    Architecture arch = searchArch();
    SafSpec safs;
    safs.addSkip(1, w.tensorIndex("B"), {w.tensorIndex("A")});
    MapperOptions opts;
    opts.samples = 600;
    MapperResult r = Mapper(w, arch, safs, opts).search();
    ASSERT_TRUE(r.found);

    Mapping hand = MappingBuilder(w, arch)
                       .temporal(0, "M", 32)
                       .temporal(1, "K", 32)
                       .temporal(1, "N", 32)
                       .buildComplete();
    Engine engine(arch);
    EvalResult hand_eval = engine.evaluate(w, hand, safs);
    EXPECT_LE(r.eval.edp(), hand_eval.edp() * 1.25);
}

} // namespace
} // namespace sparseloop
