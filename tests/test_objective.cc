/**
 * @file
 * Tests for the objective layer (mapper/objective.hh): metric
 * extraction from EvalResult, the single-metric ObjectiveSpec and its
 * shared total-order comparator, ParetoArchive dominance / dedupe /
 * crowding-bounded eviction semantics, the exact 2-D hypervolume, and
 * the fatal errors each raises on bad caller input.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "mapper/objective.hh"
#include "mapping/mapping.hh"

namespace sparseloop {
namespace {

/** A metric vector with explicit cycles/energy (EDP = the product)
 *  and optional capacity/metadata values. */
MetricVector
vec(double cycles, double energy, double capacity = 0.0,
    double metadata = 0.0)
{
    MetricVector m;
    m.at(Metric::Cycles) = cycles;
    m.at(Metric::Energy) = energy;
    m.at(Metric::Edp) = cycles * energy;
    m.at(Metric::PeakCapacity) = capacity;
    m.at(Metric::MetadataOverhead) = metadata;
    return m;
}

/** A distinct mapping per id (a single temporal loop bound), enough
 *  for archive identity checks. */
Mapping
mappingFor(std::int64_t id)
{
    std::vector<LevelNest> nests(1);
    nests[0].loops.push_back({0, id + 1, false});
    return Mapping(std::move(nests));
}

TEST(MetricVector, ExtractsEveryMetricFromAnEvalResult)
{
    EvalResult eval;
    eval.cycles = 100.0;
    eval.energy_pj = 7.0;
    eval.levels.resize(3);
    eval.levels[0].worst_case_words = 1e6;  // backing store: excluded
    eval.levels[1].worst_case_words = 500.0;
    eval.levels[2].worst_case_words = 800.0;
    eval.sparse.levels.assign(2, 2);
    eval.sparse.levels[0][0].tile_metadata_words = 3.0;
    eval.sparse.levels[0][1].tile_metadata_words = 4.5;
    eval.sparse.levels[1][0].tile_metadata_words = 2.5;

    MetricVector m = MetricVector::of(eval);
    EXPECT_DOUBLE_EQ(m.at(Metric::Cycles), 100.0);
    EXPECT_DOUBLE_EQ(m.at(Metric::Energy), 7.0);
    EXPECT_DOUBLE_EQ(m.at(Metric::Edp), eval.edp());
    // Peak capacity is the max over on-chip levels only; the
    // outermost backing store's full-tensor footprint is excluded.
    EXPECT_DOUBLE_EQ(m.at(Metric::PeakCapacity), 800.0);
    EXPECT_DOUBLE_EQ(m.at(Metric::MetadataOverhead), 10.0);

    // Single-level hierarchy: that level is the peak.
    EvalResult flat;
    flat.levels.resize(1);
    flat.levels[0].worst_case_words = 42.0;
    EXPECT_DOUBLE_EQ(flat.peakCapacityWords(), 42.0);
}

TEST(ObjectiveSpec, DefaultIsSingleEdpWithCyclesEnergyFront)
{
    ObjectiveSpec def;
    EXPECT_DOUBLE_EQ(def.scalarize(vec(50.0, 4.0)), 200.0);
    EXPECT_EQ(def.primary(), Metric::Edp);
    ASSERT_EQ(def.frontMetrics().size(), 2u);
    EXPECT_EQ(def.frontMetrics()[0], Metric::Cycles);
    EXPECT_EQ(def.frontMetrics()[1], Metric::Energy);
}

TEST(ObjectiveSpec, BetterFoldsInTheProposalIndexTieBreak)
{
    ObjectiveSpec spec;  // EDP
    const MetricVector a = vec(10.0, 10.0);
    const MetricVector b = vec(20.0, 5.0);  // equal EDP
    // Tie on the objective: the earlier proposal wins, exactly the
    // historical (objective, index) reduction.
    EXPECT_TRUE(spec.better(a, 3, b, 7));
    EXPECT_FALSE(spec.better(a, 7, b, 3));
    // A strictly better objective wins regardless of index.
    EXPECT_TRUE(spec.better(vec(9.0, 10.0), 7, b, 3));
}

TEST(ObjectiveSpec, EmptyFrontMetricsAreFatal)
{
    EXPECT_THROW(ObjectiveSpec().withFrontMetrics({}), FatalError);
}

TEST(ParetoArchive, KeepsOnlyNonDominatedEntries)
{
    ParetoArchive archive({Metric::Cycles, Metric::Energy}, 8);
    EXPECT_TRUE(archive.insert(mappingFor(0), vec(10.0, 10.0), 0));
    // Dominated on both axes: rejected.
    EXPECT_FALSE(archive.insert(mappingFor(1), vec(11.0, 11.0), 1));
    // Trades cycles for energy: joins the front.
    EXPECT_TRUE(archive.insert(mappingFor(2), vec(12.0, 8.0), 2));
    EXPECT_EQ(archive.size(), 2u);
    // Dominates the first entry: replaces it.
    EXPECT_TRUE(archive.insert(mappingFor(3), vec(9.0, 9.0), 3));
    ASSERT_EQ(archive.size(), 2u);
    EXPECT_EQ(archive.entries()[0].index, 3);
    EXPECT_EQ(archive.entries()[1].index, 2);
    // Duplicate metric vector: the earlier proposal keeps its spot.
    EXPECT_FALSE(archive.insert(mappingFor(4), vec(9.0, 9.0), 4));
    EXPECT_EQ(archive.entries()[0].index, 3);
    // Entries stay sorted by the first front metric.
    EXPECT_LT(archive.entries()[0].metrics.at(Metric::Cycles),
              archive.entries()[1].metrics.at(Metric::Cycles));
}

TEST(ParetoArchive, DominanceIgnoresMetricsOutsideTheFront)
{
    // Only cycles/energy participate; a candidate that loses on a
    // non-front metric is still dominated.
    ParetoArchive archive({Metric::Cycles, Metric::Energy}, 8);
    EXPECT_TRUE(
        archive.insert(mappingFor(0), vec(10.0, 10.0, 100.0), 0));
    EXPECT_FALSE(
        archive.insert(mappingFor(1), vec(10.0, 10.0, 1.0), 1));
    EXPECT_FALSE(
        archive.insert(mappingFor(2), vec(11.0, 10.0, 1.0), 2));
}

TEST(ParetoArchive, BoundedEvictionKeepsTheCrowdingOrderedPrefix)
{
    // Five mutually non-dominated points, one (C) packed tightly
    // between its neighbors. With capacity 4, the overflow evicts
    // exactly the minimum-crowding entry: C.
    ParetoArchive archive({Metric::Cycles, Metric::Energy}, 4);
    EXPECT_TRUE(archive.insert(mappingFor(0), vec(0.0, 10.0), 0));  // A
    EXPECT_TRUE(archive.insert(mappingFor(1), vec(1.0, 6.0), 1));   // B
    EXPECT_TRUE(archive.insert(mappingFor(2), vec(1.2, 5.5), 2));   // C
    EXPECT_TRUE(archive.insert(mappingFor(3), vec(2.0, 3.0), 3));   // D
    EXPECT_EQ(archive.size(), 4u);
    EXPECT_TRUE(archive.insert(mappingFor(4), vec(4.0, 0.0), 4));   // E
    ASSERT_EQ(archive.size(), 4u);
    // Crowding distances over {A,B,C,D,E}: boundaries A and E are
    // infinite, B = 0.3 + 0.45, C = 0.25 + 0.30 (min), D = 0.7 + 0.55
    // — so the crowding-ordered prefix of size 4 is {A, E, D, B}.
    std::vector<std::int64_t> kept;
    for (const ParetoEntry &e : archive.entries()) {
        kept.push_back(e.index);
    }
    EXPECT_EQ(kept, (std::vector<std::int64_t>{0, 1, 3, 4}));
    // Boundary points survive: the front's extremes are never traded
    // for interior density.
    EXPECT_DOUBLE_EQ(archive.entries().front().metrics.at(Metric::Cycles),
                     0.0);
    EXPECT_DOUBLE_EQ(archive.entries().back().metrics.at(Metric::Cycles),
                     4.0);
}

TEST(ParetoArchive, ZeroCapacityDisablesTracking)
{
    ParetoArchive archive({Metric::Cycles, Metric::Energy}, 0);
    EXPECT_FALSE(archive.insert(mappingFor(0), vec(1.0, 1.0), 0));
    EXPECT_EQ(archive.size(), 0u);
}

TEST(ParetoArchive, NoMetricsIsFatal)
{
    EXPECT_THROW(ParetoArchive({}, 8), FatalError);
}

TEST(Hypervolume, ExactAreaForATwoMetricFront)
{
    const std::vector<Metric> axes{Metric::Cycles, Metric::Energy};
    std::vector<ParetoEntry> front;
    front.push_back({0, vec(1.0, 3.0), mappingFor(0)});
    front.push_back({1, vec(2.0, 2.0), mappingFor(1)});
    front.push_back({2, vec(3.0, 1.0), mappingFor(2)});
    MetricVector ref = vec(4.0, 4.0);
    // Union of the three dominated rectangles: 1 + 2 + 3.
    EXPECT_DOUBLE_EQ(hypervolume2d(front, axes, ref), 6.0);

    // A point at/beyond the reference contributes nothing.
    front.push_back({3, vec(0.5, 4.0), mappingFor(3)});
    EXPECT_DOUBLE_EQ(hypervolume2d(front, axes, ref), 6.0);

    // An empty front has zero hypervolume.
    EXPECT_DOUBLE_EQ(hypervolume2d(std::vector<ParetoEntry>{}, axes, ref),
                     0.0);
}

TEST(Hypervolume, OtherThanTwoMetricsIsFatal)
{
    const std::vector<ParetoEntry> front;
    const MetricVector ref = vec(4.0, 4.0);
    EXPECT_THROW(hypervolume2d(front, {Metric::Cycles}, ref), FatalError);
    EXPECT_THROW(hypervolume2d(front,
                               {Metric::Cycles, Metric::Energy,
                                Metric::Edp},
                               ref),
                 FatalError);
}

} // namespace
} // namespace sparseloop
