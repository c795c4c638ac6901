/**
 * @file
 * Tests for the multi-threaded mapspace search:
 * `Mapper::searchWithThreads(n)` must return results bit-identical to
 * the sequential `Mapper::search()` across objectives and thread
 * counts.
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

void
expectIdentical(const MapperResult &seq, const MapperResult &par)
{
    ASSERT_EQ(seq.found, par.found);
    EXPECT_EQ(seq.candidates_evaluated, par.candidates_evaluated);
    EXPECT_EQ(seq.candidates_valid, par.candidates_valid);
    if (!seq.found) {
        return;
    }
    // Bit-identical evaluation: exact double equality, no tolerance.
    EXPECT_EQ(seq.eval.cycles, par.eval.cycles);
    EXPECT_EQ(seq.eval.energy_pj, par.eval.energy_pj);
    EXPECT_EQ(seq.eval.edp(), par.eval.edp());
    EXPECT_EQ(seq.eval.compute_instances, par.eval.compute_instances);
    EXPECT_EQ(seq.eval.computes.total(), par.eval.computes.total());
    // Identical winning mapping, loop by loop.
    ASSERT_EQ(seq.mapping.levelCount(), par.mapping.levelCount());
    for (int l = 0; l < seq.mapping.levelCount(); ++l) {
        const LevelNest &a = seq.mapping.level(l);
        const LevelNest &b = par.mapping.level(l);
        ASSERT_EQ(a.loops.size(), b.loops.size());
        for (std::size_t i = 0; i < a.loops.size(); ++i) {
            EXPECT_EQ(a.loops[i].dim, b.loops[i].dim);
            EXPECT_EQ(a.loops[i].bound, b.loops[i].bound);
            EXPECT_EQ(a.loops[i].spatial, b.loops[i].spatial);
        }
        EXPECT_EQ(a.keep, b.keep);
    }
}

TEST(ParallelSearch, MatchesSequentialAcrossThreadCounts)
{
    Workload w = makeMatmul(16, 16, 16);
    Architecture arch = searchArch();
    SafSpec none;
    MapperOptions opts;
    opts.samples = 300;
    Mapper mapper(w, arch, none, opts);
    MapperResult seq = mapper.search();
    ASSERT_TRUE(seq.found);
    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectIdentical(seq, mapper.searchWithThreads(threads));
    }
}

TEST(ParallelSearch, MatchesSequentialAcrossObjectives)
{
    Workload w = makeMatmul(32, 32, 32);
    Architecture arch = searchArch();
    SafSpec none;
    for (Metric metric : {Metric::Edp, Metric::Cycles, Metric::Energy}) {
        MapperOptions opts;
        opts.objective = ObjectiveSpec::single(metric);
        opts.samples = 400;
        Mapper mapper(w, arch, none, opts);
        MapperResult seq = mapper.search();
        ASSERT_TRUE(seq.found);
        for (int threads : {2, 8}) {
            SCOPED_TRACE(std::string("objective=") + toString(metric) +
                         " threads=" + std::to_string(threads));
            expectIdentical(seq, mapper.searchWithThreads(threads));
        }
    }
}

TEST(ParallelSearch, MatchesSequentialWithSafsAndConstraints)
{
    Workload w = makeMatmul(32, 32, 32);
    bindUniformDensities(w, {{"A", 0.1}});
    Architecture arch = searchArch();
    SafSpec safs;
    safs.addSkip(1, w.tensorIndex("B"), {w.tensorIndex("A")});
    MapspaceConstraints cons;
    cons.levels.resize(2);
    cons.levels[1].loop_order = {w.dimIndex("M"), w.dimIndex("K")};
    MapperOptions opts;
    opts.samples = 400;
    Mapper mapper(w, arch, safs, opts, cons);
    MapperResult seq = mapper.search();
    ASSERT_TRUE(seq.found);
    for (int threads : {2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectIdentical(seq, mapper.searchWithThreads(threads));
    }
}

TEST(ParallelSearch, MoreThreadsThanSamples)
{
    // 16 workers for a 3-candidate budget: each batch clamps the
    // worker count to its size, and the result is unchanged.
    Workload w = makeMatmul(8, 8, 8);
    Architecture arch = searchArch();
    SafSpec none;
    MapperOptions opts;
    opts.samples = 3;
    Mapper mapper(w, arch, none, opts);
    MapperResult seq = mapper.search();
    MapperResult par = mapper.searchWithThreads(16);
    EXPECT_EQ(par.candidates_evaluated, 3);
    expectIdentical(seq, par);
}

TEST(ParallelSearch, DefaultThreadCount)
{
    // 0 = all hardware threads.
    Workload w = makeMatmul(8, 8, 8);
    Architecture arch = searchArch();
    SafSpec none;
    MapperOptions opts;
    opts.samples = 64;
    Mapper mapper(w, arch, none, opts);
    MapperResult seq = mapper.search();
    MapperResult par = mapper.searchWithThreads(0);
    expectIdentical(seq, par);
}

} // namespace
} // namespace sparseloop
