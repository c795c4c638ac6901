/**
 * @file
 * Tests for the mapspace IR: constraint validation and pruning-by-
 * construction, exact size accounting, indexed enumeration, the
 * coordinate (Point) form with its neighbourhoods and random
 * neighbour draws, empty-space detection, and pinned digests of
 * every access pattern's output.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <set>

#include "apps/designs.hh"
#include "apps/dnn_models.hh"
#include "common/logging.hh"
#include "common/mathutil.hh"
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

/** A 2x2x2x2 CONV: C, R and S share one tensor-relevance class. */
Workload
tinyConv()
{
    ConvLayerShape shape;
    shape.name = "tiny";
    shape.k = 2;
    shape.c = 2;
    shape.r = 2;
    shape.s = 2;
    return makeConv(shape);
}

/** DRAM over two capacity-bound buffers. */
Architecture
threeLevelArch()
{
    StorageLevelSpec dram;
    dram.name = "DRAM";
    dram.storage_class = StorageClass::DRAM;
    dram.bandwidth_words_per_cycle = 16.0;
    StorageLevelSpec l1;
    l1.name = "L1";
    l1.capacity_words = 1024;
    l1.bandwidth_words_per_cycle = 8.0;
    StorageLevelSpec l0;
    l0.name = "L0";
    l0.capacity_words = 256;
    l0.bandwidth_words_per_cycle = 4.0;
    return Architecture("three", {dram, l1, l0}, ComputeSpec{});
}

/** Buffer loop order fixed to (M, K): N may not be tiled there. */
MapspaceConstraints
orderConstrained(const Workload &w)
{
    MapspaceConstraints cons;
    cons.levels.resize(2);
    cons.levels[1].loop_order = {w.dimIndex("M"), w.dimIndex("K")};
    return cons;
}

/** One conv layer on one Table 3 design. */
struct ZooSpace
{
    std::string name;
    Workload workload;
    apps::DesignPoint design;
};

/** VGG16 conv layers 2 and 8 on Eyeriss, Eyeriss v2 PE and SCNN. */
std::vector<ZooSpace>
zooConvSpaces()
{
    using Builder = apps::DesignPoint (*)(const Workload &);
    const auto layers = apps::vgg16ConvLayers();
    std::vector<ZooSpace> out;
    for (std::size_t i : {2, 8}) {
        Workload w = makeConv(layers[i]);
        for (Builder build : {apps::buildEyeriss, apps::buildEyerissV2Pe,
                              apps::buildScnn}) {
            apps::DesignPoint d = build(w);
            std::string name = d.name + " vgg16-conv" + std::to_string(i);
            out.push_back({std::move(name), w, std::move(d)});
        }
    }
    return out;
}

TEST(MapSpace, SizeAccountingMatchesEnumeration)
{
    Workload w = makeMatmul(4, 4, 4);
    Architecture arch = searchArch();
    MapSpace space(w, arch);
    ASSERT_FALSE(space.empty());
    const MapSpaceSize &size = space.size();
    ASSERT_TRUE(size.exact);
    ASSERT_GE(size.enumerable, 0);
    EXPECT_DOUBLE_EQ(size.points,
                     static_cast<double>(size.enumerable));

    // Each dimension's bound 4 = 2^2 splits across 2 levels in
    // C(2+1, 1) = 3 ways.
    for (int d = 0; d < w.dimCount(); ++d) {
        EXPECT_EQ(space.splitCount(d), 3);
        EXPECT_EQ(space.splits(d).size(), 3u);
    }

    // The enumeration is valid, in-space, and duplicate-free — so the
    // reported size is the exact number of distinct mappings.
    std::set<std::uint64_t> signatures;
    for (std::int64_t i = 0; i < size.enumerable; ++i) {
        Mapping m = space.mappingAt(i);
        m.validate(w, arch);
        EXPECT_TRUE(space.satisfies(m));
        signatures.insert(m.signature());
    }
    EXPECT_EQ(static_cast<std::int64_t>(signatures.size()),
              size.enumerable);
}

TEST(MapSpace, ConstraintsPruneByConstruction)
{
    Workload w = makeMatmul(16, 16, 16);
    Architecture arch = searchArch();
    MapspaceConstraints cons;
    cons.levels.resize(2);
    // Buffer level admits only M and K: N may not be tiled there.
    cons.levels[1].loop_order = {w.dimIndex("M"), w.dimIndex("K")};
    MapSpace space(w, arch, cons);
    ASSERT_FALSE(space.empty());

    // The tiling axis of N is pruned to DRAM-only splits.
    const int n = w.dimIndex("N");
    EXPECT_EQ(space.splitCount(n), 1);
    for (const auto &split : space.splits(n)) {
        EXPECT_EQ(split[1], 1);
    }
    EXPECT_EQ(space.allowedLevels(n), std::vector<int>{0});

    // Every sampled candidate satisfies the constraints: sampling is
    // rejection-free by construction.
    for (std::uint64_t seed = 0; seed < 500; ++seed) {
        Mapping m = space.sampleMapping(seed);
        m.validate(w, arch);
        EXPECT_TRUE(space.satisfies(m));
    }
}

TEST(MapSpace, SampledCandidatesEncodeAndRoundtrip)
{
    Workload w = makeMatmul(16, 16, 16);
    Architecture arch = searchArch();
    MapSpace space(w, arch);
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
        Mapping m = space.sampleMapping(seed);
        auto point = space.encode(m);
        ASSERT_TRUE(point.has_value()) << "seed " << seed;
        EXPECT_EQ(space.materialize(*point), m);
    }
}

TEST(MapSpace, NeighborsStayInSpace)
{
    // Every neighbour is a valid in-space point whose mapping encodes
    // back to the same coordinates.
    auto check = [](const MapSpace &space, std::uint64_t seed) {
        auto neighbors = space.neighbors(space.samplePoint(seed));
        EXPECT_FALSE(neighbors.empty());
        for (const auto &p : neighbors) {
            Mapping nm = space.materialize(p);
            nm.validate(space.workload(), space.arch());
            EXPECT_TRUE(space.satisfies(nm));
            auto back = space.encode(nm);
            ASSERT_TRUE(back.has_value());
            EXPECT_EQ(*back, p);
        }
    };

    Workload w = makeMatmul(16, 16, 16);
    Architecture arch = searchArch();
    MapSpace constrained(w, arch, orderConstrained(w));
    check(constrained, 7);

    for (const ZooSpace &z : zooConvSpaces()) {
        MapSpace space(z.workload, z.design.arch);
        ASSERT_TRUE(space.pointEncodable()) << z.name;
        for (std::uint64_t seed = 0; seed < 4; ++seed) {
            SCOPED_TRACE(z.name + " seed=" + std::to_string(seed));
            check(space, seed);
        }
    }
}

TEST(MapSpace, RandomNeighborIsTheDrawnEntryOfNeighbors)
{
    // randomNeighbor is exactly "draw a uniform index into
    // neighbors()": the same entry for the same generator state, with
    // one draw consumed. Checked along short random walks.
    auto walk = [](const MapSpace &space, const std::string &name) {
        ASSERT_TRUE(space.pointEncodable()) << name;
        std::mt19937_64 rng(11);
        for (std::uint64_t seed = 0; seed < 6; ++seed) {
            MapSpace::Point p = space.samplePoint(seed);
            for (int step = 0; step < 40; ++step) {
                SCOPED_TRACE(name + " seed=" + std::to_string(seed) +
                             " step=" + std::to_string(step));
                const std::vector<MapSpace::Point> all =
                    space.neighbors(p);
                ASSERT_FALSE(all.empty());
                std::mt19937_64 copy = rng;
                std::uniform_int_distribution<std::size_t> pick(
                    0, all.size() - 1);
                const MapSpace::Point &expected = all[pick(copy)];
                auto drawn = space.randomNeighbor(p, rng);
                ASSERT_TRUE(drawn.has_value());
                EXPECT_EQ(*drawn, expected);
                EXPECT_EQ(rng, copy);
                p = *std::move(drawn);
            }
        }
    };

    Workload w = makeMatmul(16, 16, 16);
    Architecture arch = searchArch();
    walk(MapSpace(w, arch, orderConstrained(w)), "matmul16-constrained");
    for (const ZooSpace &z : zooConvSpaces()) {
        for (bool bypass : {false, true}) {
            MapSpaceOptions opts;
            opts.explore_bypass = bypass;
            walk(MapSpace(z.workload, z.design.arch, {}, opts),
                 z.name + (bypass ? " bypass" : " keep-all"));
        }
    }

    // A point with no moves at all (every bound 1, keep axis closed)
    // draws nothing and leaves the generator untouched.
    Workload unit = makeMatmul(1, 1, 1);
    MapSpaceOptions closed;
    closed.explore_bypass = false;
    MapSpace isolated(unit, arch, {}, closed);
    MapSpace::Point p = isolated.samplePoint(0);
    ASSERT_TRUE(isolated.neighbors(p).empty());
    std::mt19937_64 rng(3);
    const std::mt19937_64 before = rng;
    EXPECT_FALSE(isolated.randomNeighbor(p, rng).has_value());
    EXPECT_EQ(rng, before);
}

TEST(MapSpace, SamplePointMatchesSampleMapping)
{
    Workload w = makeMatmul(16, 16, 16);
    Architecture arch = searchArch();
    MapSpace space(w, arch);
    ASSERT_TRUE(space.pointEncodable());
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        EXPECT_EQ(space.materialize(space.samplePoint(seed)),
                  space.sampleMapping(seed));
    }
}

TEST(MapSpace, ReconcileRepairsPointsAfterTilingMoves)
{
    Workload w = makeMatmul(16, 16, 16);
    Architecture arch = searchArch();
    MapspaceConstraints cons;
    cons.levels.resize(2);
    cons.levels[1].loop_order = {w.dimIndex("M"), w.dimIndex("K")};
    MapSpace space(w, arch, cons);
    MapSpace::Point point = space.samplePoint(3);
    // Force every dimension onto a different tiling split while
    // keeping the stale order/spatial coordinates: reconcile must
    // repair them into a valid in-space point.
    for (int d = 0; d < space.dimCount(); ++d) {
        auto idx = static_cast<std::size_t>(d);
        point.tiling[idx] =
            (point.tiling[idx] + 1) %
            static_cast<std::size_t>(space.splitCount(d));
    }
    MapSpace::Point repaired = space.reconcile(point);
    Mapping m = space.materialize(repaired);
    m.validate(w, arch);
    EXPECT_TRUE(space.satisfies(m));
    EXPECT_TRUE(space.encode(m).has_value());
}

TEST(MapSpace, CrossoverStaysInSpaceAndIsDeterministic)
{
    Workload w = makeMatmul(16, 16, 16);
    Architecture arch = searchArch();
    MapspaceConstraints cons;
    cons.levels.resize(2);
    cons.levels[0].spatial_dims = {w.dimIndex("M")};
    cons.levels[1].loop_order = {w.dimIndex("M"), w.dimIndex("K")};
    MapSpace space(w, arch, cons);

    std::mt19937_64 rng(42);
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        MapSpace::Point a = space.samplePoint(seed);
        MapSpace::Point b = space.samplePoint(seed + 1000);
        MapSpace::Point child = space.crossover(a, b, rng);
        // In-space by construction: no rejection check needed, but
        // verify the guarantee end to end.
        Mapping m = space.materialize(child);
        m.validate(w, arch);
        EXPECT_TRUE(space.satisfies(m));
        EXPECT_TRUE(space.encode(m).has_value());
    }

    // Same parents + same generator state -> the same child.
    MapSpace::Point a = space.samplePoint(7);
    MapSpace::Point b = space.samplePoint(8);
    std::mt19937_64 r1(123), r2(123);
    EXPECT_EQ(space.materialize(space.crossover(a, b, r1)),
              space.materialize(space.crossover(a, b, r2)));

    // randomNeighbor draws an entry of neighbors() deterministically.
    std::mt19937_64 r3(5), r4(5);
    auto n1 = space.randomNeighbor(a, r3);
    auto n2 = space.randomNeighbor(a, r4);
    ASSERT_TRUE(n1.has_value());
    ASSERT_TRUE(n2.has_value());
    EXPECT_EQ(space.materialize(*n1), space.materialize(*n2));
}

TEST(MapSpace, EmptySpaceIsDetectedAndSurfaced)
{
    Workload w = makeMatmul(8, 8, 8);
    Architecture arch = searchArch();
    MapspaceConstraints cons;
    cons.levels.resize(2);
    // N is excluded from every level: no mapping can cover it.
    cons.levels[0].loop_order = {w.dimIndex("M"), w.dimIndex("K")};
    cons.levels[1].loop_order = {w.dimIndex("M"), w.dimIndex("K")};
    MapSpace space(w, arch, cons);
    EXPECT_TRUE(space.empty());
    EXPECT_EQ(space.size().enumerable, 0);

    // The mapper surfaces the empty space as a distinguishable status
    // instead of a bare found=false.
    SafSpec none;
    MapperResult r = Mapper(w, arch, none, {}, cons).search();
    EXPECT_FALSE(r.found);
    EXPECT_EQ(r.status, SearchStatus::kEmptyMapSpace);
    EXPECT_EQ(r.candidates_evaluated, 0);
}

TEST(MapSpace, ExploreBypassExpandsTheKeepAxis)
{
    Workload w = makeMatmul(4, 4, 4);
    Architecture arch = searchArch();
    MapSpaceOptions closed;
    closed.explore_bypass = false;
    MapSpace plain(w, arch, {}, closed);
    MapSpace bypass(w, arch);  // bypass exploration is the default
    // 2^3 keep masks at the non-outermost level (the empty keep-all
    // choice plus the 7 proper masks).
    EXPECT_EQ(plain.keepChoices(1).size(), 1u);
    EXPECT_EQ(bypass.keepChoices(1).size(), 8u);
    EXPECT_GT(bypass.size().points, plain.size().points);
}

TEST(MapSpace, PruningPassesAreLossless)
{
    // CONV has interchangeable dimensions for canonical-form symmetry
    // reduction to collapse (C, R, S all touch Inputs and Weights but
    // not Outputs), and a three-level hierarchy gives keep-dominance
    // an inner keep level to compare against.
    Workload w = tinyConv();
    Architecture arch = threeLevelArch();

    MapSpaceOptions raw_opts;
    raw_opts.prune_symmetry = false;
    raw_opts.prune_dominated_keeps = false;
    raw_opts.prune_capacity_tilings = false;
    MapSpace raw(w, arch, {}, raw_opts);
    MapSpace pruned(w, arch);  // all passes on by default

    ASSERT_TRUE(raw.size().exact);
    ASSERT_TRUE(pruned.size().exact);
    ASSERT_GT(raw.size().enumerable, 0);
    ASSERT_LT(pruned.size().enumerable, raw.size().enumerable);

    // The per-pass accounting is consistent: kept = raw - pruned, the
    // raw count matches the unpruned space, and both interesting
    // passes actually fired on this workload.
    const MapSpacePruneStats &stats = pruned.pruneStats();
    EXPECT_TRUE(stats.exact);
    EXPECT_DOUBLE_EQ(stats.raw_points, raw.size().points);
    EXPECT_DOUBLE_EQ(stats.keptPoints(), pruned.size().points);
    EXPECT_GT(stats.pruned_symmetry, 0.0);
    EXPECT_GT(stats.pruned_dominated_keeps, 0.0);

    // Losslessness: exhaustive search over the raw space and over the
    // pruned space reach the same optimum objective. The pruned
    // enumeration is a strict subset, so equality here proves every
    // pruned point was dominated.
    Engine engine(arch);
    SafSpec none;
    auto best_of = [&](const MapSpace &space) {
        double best = std::numeric_limits<double>::infinity();
        for (std::int64_t i = 0; i < space.size().enumerable; ++i) {
            EvalResult eval =
                engine.evaluate(w, space.mappingAt(i), none);
            if (!eval.valid) {
                continue;
            }
            best = std::min(best, eval.energy_pj * eval.cycles);
        }
        return best;
    };
    const double raw_best = best_of(raw);
    const double pruned_best = best_of(pruned);
    ASSERT_TRUE(std::isfinite(raw_best));
    EXPECT_DOUBLE_EQ(pruned_best, raw_best);
}

/** Running digest of the coordinates of one point. */
std::uint64_t
hashPoint(std::uint64_t h, const MapSpace::Point &p)
{
    for (std::size_t t : p.tiling) {
        h = math::hashCombine(h, t);
    }
    for (const auto &order : p.order) {
        h = math::hashCombine(h, order.size());
        for (int d : order) {
            h = math::hashCombine(h, static_cast<std::uint64_t>(d));
        }
    }
    for (int s : p.spatial) {
        h = math::hashCombine(h, static_cast<std::uint64_t>(s));
    }
    for (std::size_t k : p.keep) {
        h = math::hashCombine(h, k);
    }
    return h;
}

/** Pinned digests of every access pattern of one space. */
struct SpaceDigests
{
    std::uint64_t enumeration = 0;
    std::uint64_t sizes = 0;
    std::uint64_t samples = 0;
    std::uint64_t neighbors = 0;
    std::uint64_t coarse = 0;
    std::uint64_t crossover = 0;
};

SpaceDigests
digestSpace(const MapSpace &space)
{
    using math::hashCombine;
    using math::hashDouble;
    SpaceDigests out;
    std::uint64_t h = math::kHashSeed;
    for (std::int64_t i = 0; i < space.size().enumerable; ++i) {
        h = hashCombine(h, space.mappingAt(i).signature());
    }
    out.enumeration = h;

    const MapSpaceSize &size = space.size();
    const MapSpacePruneStats &stats = space.pruneStats();
    h = hashDouble(math::kHashSeed, size.points);
    h = hashCombine(h, size.exact ? 1 : 0);
    h = hashCombine(h, static_cast<std::uint64_t>(size.enumerable));
    h = hashDouble(h, stats.raw_points);
    h = hashDouble(h, stats.pruned_symmetry);
    h = hashDouble(h, stats.pruned_dominated_keeps);
    h = hashDouble(h, stats.pruned_capacity_tilings);
    h = hashCombine(h, stats.exact ? 1 : 0);
    out.sizes = hashCombine(h, static_cast<std::uint64_t>(
                                   space.tilingCount()));

    h = math::kHashSeed;
    for (std::uint64_t s = 0; s < 256; ++s) {
        h = hashCombine(h, space.sampleMapping(s).signature());
    }
    out.samples = h;

    h = math::kHashSeed;
    for (std::uint64_t s = 0; s < 8; ++s) {
        for (const MapSpace::Point &p :
             space.neighbors(space.samplePoint(s))) {
            h = hashPoint(h, p);
        }
    }
    out.neighbors = h;

    h = math::kHashSeed;
    const std::int64_t tilings = space.tilingCount();
    for (std::int64_t t : {std::int64_t{0}, tilings / 3, tilings / 2,
                           tilings - 1}) {
        for (const MapSpace::Point &p : space.coarsePoints(t, 4)) {
            h = hashPoint(h, p);
        }
    }
    out.coarse = h;

    std::mt19937_64 rng(42);
    out.crossover = hashPoint(
        math::kHashSeed,
        space.crossover(space.samplePoint(0), space.samplePoint(1), rng));
    return out;
}

TEST(MapSpace, OutputsArePinned)
{
    // Every access pattern's output, digested and pinned: the indexed
    // enumeration order, the size and prune accounting, the seeded
    // sampler's RNG stream, the neighbour order, the coarse points,
    // and one seeded crossover. A refactor of the space must leave all
    // of them bit-identical.
    Workload w = makeMatmul(4, 4, 4);
    Architecture arch = searchArch();
    MapSpaceOptions raw;
    raw.prune_symmetry = false;
    raw.prune_dominated_keeps = false;
    raw.prune_capacity_tilings = false;
    MapSpaceOptions keep_all;
    keep_all.explore_bypass = false;
    MapspaceConstraints cons;
    cons.levels.resize(2);
    cons.levels[0].spatial_dims = {w.dimIndex("M")};
    cons.levels[1].loop_order = {w.dimIndex("M"), w.dimIndex("K")};
    cons.levels[1].keep = {0, 2};
    Workload conv = makeConv(apps::vgg16ConvLayers()[2]);
    apps::DesignPoint v2 = apps::buildEyerissV2Pe(conv);
    Workload tiny = tinyConv();
    Architecture three = threeLevelArch();
    // An L0 pinned to keep every tensor, too small for the full tiny
    // tile: the capacity pass drops the tilings that overflow it.
    Architecture small_l0 = threeLevelArch();
    small_l0.level(2).capacity_words = 8;
    MapspaceConstraints pin_l0;
    pin_l0.levels.resize(3);
    pin_l0.levels[2].keep = {0, 1, 2};
    MapSpace capacity(tiny, small_l0, pin_l0);
    ASSERT_GT(capacity.pruneStats().pruned_capacity_tilings, 0.0);

    struct Case
    {
        const char *name;
        MapSpace space;
        SpaceDigests expected;
    };
    const Case cases[] = {
        {"matmul4 default", MapSpace(w, arch),
         {13037926425242429398ull, 3845031102075478740ull,
          12451180277462118406ull, 9506359180360173097ull,
          9878365773082232323ull, 3864733216256333753ull}},
        {"matmul4 raw", MapSpace(w, arch, {}, raw),
         {15816067328484490374ull, 3845031102075478740ull,
          12451180277462118406ull, 9506359180360173097ull,
          9878365773082232323ull, 3864733216256333753ull}},
        {"matmul4 keep-all", MapSpace(w, arch, {}, keep_all),
         {2094227464459552715ull, 14631355044059908538ull,
          10732340643933554136ull, 5964238317680246980ull,
          9932043203419799242ull, 3864733216256333753ull}},
        {"matmul4 constrained", MapSpace(w, arch, cons),
         {7906934348190264422ull, 6757472081572838044ull,
          16410723377390626065ull, 9057291514985546337ull,
          3990315178061057986ull, 12929484127432574441ull}},
        {"vgg16-conv2 eyeriss-v2-pe", MapSpace(conv, v2.arch),
         {1469598103934665603ull, 5722644289362542973ull,
          1816565171697610863ull, 2374217630509824369ull,
          13761578536470735055ull, 7276422279533345003ull}},
        {"tiny-conv three-level", MapSpace(tiny, three),
         {2592558665379659517ull, 13532137466012100486ull,
          4848921898194062205ull, 720578417687565597ull,
          3130229598674001747ull, 1404374754687209177ull}},
        {"tiny-conv small-L0 capacity", capacity,
         {12991422280986925426ull, 357296828696904774ull,
          8894352061996176054ull, 16977207442988934586ull,
          12393677210365766907ull, 1404374754687209177ull}},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        SpaceDigests got = digestSpace(c.space);
        EXPECT_EQ(got.enumeration, c.expected.enumeration);
        EXPECT_EQ(got.sizes, c.expected.sizes);
        EXPECT_EQ(got.samples, c.expected.samples);
        EXPECT_EQ(got.neighbors, c.expected.neighbors);
        EXPECT_EQ(got.coarse, c.expected.coarse);
        EXPECT_EQ(got.crossover, c.expected.crossover);
    }
}

/** @p n dimensions of bound 1 (dimension 0: bound 2), each a rank
 *  of one input; the output covers dimension 0. */
Workload
wideWorkload(int n)
{
    std::vector<WorkloadDim> dims;
    DataSpace in;
    in.name = "A";
    for (int d = 0; d < n; ++d) {
        dims.push_back({"D" + std::to_string(d), d == 0 ? 2 : 1});
        in.projection.push_back({{d, 1}});
    }
    DataSpace out;
    out.name = "Z";
    out.projection = {{{0, 1}}};
    out.is_output = true;
    return Workload("wide", std::move(dims), {in, out});
}

/** DRAM over @p n - 1 buffers. */
Architecture
tallArch(int n)
{
    std::vector<StorageLevelSpec> levels(static_cast<std::size_t>(n));
    for (int l = 0; l < n; ++l) {
        levels[static_cast<std::size_t>(l)].name = "L" + std::to_string(l);
    }
    levels.front().storage_class = StorageClass::DRAM;
    return Architecture("tall", std::move(levels), ComputeSpec{});
}

/** The FatalError message of constructing the space, or "" if none. */
std::string
constructionError(const Workload &w, const Architecture &arch,
                  MapSpaceOptions opts = {})
{
    try {
        MapSpace space(w, arch, {}, opts);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(MapSpace, RejectsTooManyDimensionsOrLevels)
{
    // Dimension sets are 64-bit masks and free-level keep combinations
    // 32-bit ones: wider or deeper inputs are rejected up front, with
    // the count in the message, instead of shifting past the mask.
    Architecture arch = searchArch();
    EXPECT_EQ(constructionError(wideWorkload(64), arch), "");
    std::string wide = constructionError(wideWorkload(65), arch);
    EXPECT_NE(wide.find("64 workload dimensions"), std::string::npos)
        << wide;
    EXPECT_NE(wide.find("has 65"), std::string::npos) << wide;

    Workload unit = makeMatmul(1, 1, 1);
    MapSpaceOptions closed;  // 31 open keep levels: 2^31 combinations
    closed.explore_bypass = false;
    EXPECT_EQ(constructionError(unit, tallArch(32), closed), "");
    std::string tall = constructionError(unit, tallArch(33));
    EXPECT_NE(tall.find("32 storage levels"), std::string::npos) << tall;
    EXPECT_NE(tall.find("has 33"), std::string::npos) << tall;
}

TEST(MapSpaceConstraints, ValidationRejectsBrokenConstraints)
{
    Workload w = makeMatmul(8, 8, 8);
    Architecture arch = searchArch();
    SafSpec none;
    {
        // Wrong level count (the pre-existing check).
        MapspaceConstraints cons;
        cons.levels.resize(1);
        EXPECT_THROW(Mapper(w, arch, none, {}, cons), FatalError);
    }
    {
        // Duplicate dimension in loop_order.
        MapspaceConstraints cons;
        cons.levels.resize(2);
        cons.levels[1].loop_order = {0, 1, 0};
        EXPECT_THROW(Mapper(w, arch, none, {}, cons), FatalError);
    }
    {
        // Out-of-range dimension in spatial_dims.
        MapspaceConstraints cons;
        cons.levels.resize(2);
        cons.levels[0].spatial_dims = {w.dimCount()};
        EXPECT_THROW(Mapper(w, arch, none, {}, cons), FatalError);
    }
    {
        // Out-of-range tensor in keep.
        MapspaceConstraints cons;
        cons.levels.resize(2);
        cons.levels[1].keep = {-1};
        EXPECT_THROW(Mapper(w, arch, none, {}, cons), FatalError);
    }
    {
        // Duplicate tensor in keep.
        MapspaceConstraints cons;
        cons.levels.resize(2);
        cons.levels[1].keep = {1, 1};
        EXPECT_THROW(Mapper(w, arch, none, {}, cons), FatalError);
    }
}

} // namespace
} // namespace sparseloop
