/**
 * @file
 * Mapping implementation.
 */

#include "mapping/mapping.hh"

#include <sstream>

#include "common/logging.hh"
#include "common/mathutil.hh"

namespace sparseloop {

bool
operator==(const Mapping &a, const Mapping &b)
{
    return a.levels() == b.levels();
}

void
Mapping::validate(const Workload &workload, const Architecture &arch) const
{
    if (levelCount() != arch.levelCount()) {
        SL_FATAL("mapping has ", levelCount(), " subnests but the ",
                 "architecture has ", arch.levelCount(), " levels");
    }
    std::vector<std::int64_t> product(workload.dimCount(), 1);
    for (int l = 0; l < levelCount(); ++l) {
        std::int64_t spatial = 1;
        for (const auto &loop : levels_[l].loops) {
            if (loop.dim < 0 || loop.dim >= workload.dimCount()) {
                SL_FATAL("loop references unknown dimension ", loop.dim);
            }
            if (loop.bound < 1) {
                SL_FATAL("loop bound must be positive, got ", loop.bound);
            }
            product[loop.dim] *= loop.bound;
            if (loop.spatial) {
                spatial *= loop.bound;
            }
        }
        if (spatial > arch.level(l).fanout) {
            SL_FATAL("level ", arch.level(l).name, " spatial fanout ",
                     spatial, " exceeds limit ", arch.level(l).fanout);
        }
        if (!levels_[l].keep.empty() &&
            static_cast<int>(levels_[l].keep.size()) !=
                workload.tensorCount()) {
            SL_FATAL("keep mask size mismatch at level ", l);
        }
    }
    for (int d = 0; d < workload.dimCount(); ++d) {
        if (product[d] != workload.dims()[d].bound) {
            SL_FATAL("dimension ", workload.dims()[d].name,
                     " loop bounds multiply to ", product[d],
                     " but the bound is ", workload.dims()[d].bound);
        }
    }
}

std::vector<std::int64_t>
Mapping::dimTilesAtLevel(const Workload &workload, int lvl) const
{
    std::vector<std::int64_t> tiles(workload.dimCount(), 1);
    for (int l = lvl; l < levelCount(); ++l) {
        for (const auto &loop : levels_[l].loops) {
            tiles[loop.dim] *= loop.bound;
        }
    }
    return tiles;
}

std::int64_t
Mapping::instancesAtLevel(int lvl) const
{
    std::int64_t inst = 1;
    for (int l = 0; l < lvl; ++l) {
        for (const auto &loop : levels_[l].loops) {
            if (loop.spatial) {
                inst *= loop.bound;
            }
        }
    }
    return inst;
}

std::int64_t
Mapping::computeInstances() const
{
    return instancesAtLevel(levelCount());
}

std::string
Mapping::toString(const Workload &workload) const
{
    std::ostringstream oss;
    for (int l = 0; l < levelCount(); ++l) {
        oss << "L" << l << ":";
        for (const auto &loop : levels_[l].loops) {
            oss << " " << (loop.spatial ? "par-for " : "for ")
                << workload.dims()[loop.dim].name << " in [0:"
                << loop.bound << ")";
        }
        oss << "\n";
    }
    return oss.str();
}

MappingBuilder::MappingBuilder(const Workload &workload,
                               const Architecture &arch)
    : workload_(workload), arch_(arch),
      levels_(arch.levelCount())
{
}

LevelNest &
MappingBuilder::nest(int level)
{
    if (level < 0 || level >= static_cast<int>(levels_.size())) {
        SL_FATAL("mapping level ", level, " out of range: the ",
                 "architecture has ", levels_.size(), " levels");
    }
    return levels_[level];
}

MappingBuilder &
MappingBuilder::temporal(int level, const std::string &dim,
                         std::int64_t bound)
{
    nest(level).loops.push_back({workload_.dimIndex(dim), bound, false});
    return *this;
}

MappingBuilder &
MappingBuilder::spatial(int level, const std::string &dim,
                        std::int64_t bound)
{
    nest(level).loops.push_back({workload_.dimIndex(dim), bound, true});
    return *this;
}

MappingBuilder &
MappingBuilder::keepOnly(int level,
                         const std::vector<std::string> &tensors)
{
    LevelNest &n = nest(level);
    n.keep.assign(workload_.tensorCount(), false);
    for (const auto &name : tensors) {
        n.keep[workload_.tensorIndex(name)] = true;
    }
    return *this;
}

Mapping
MappingBuilder::build() const
{
    Mapping m(levels_);
    m.validate(workload_, arch_);
    return m;
}

Mapping
MappingBuilder::buildComplete() const
{
    auto levels = levels_;
    std::vector<std::int64_t> product(workload_.dimCount(), 1);
    for (const auto &nest : levels) {
        for (const auto &loop : nest.loops) {
            product[loop.dim] *= loop.bound;
        }
    }
    for (int d = workload_.dimCount(); d-- > 0;) {
        std::int64_t bound = workload_.dims()[d].bound;
        if (product[d] > bound || bound % product[d] != 0) {
            SL_FATAL("dimension ", workload_.dims()[d].name,
                     " partial bounds ", product[d],
                     " do not divide the full bound ", bound);
        }
        std::int64_t residual = bound / product[d];
        if (residual > 1) {
            levels[0].loops.insert(levels[0].loops.begin(),
                                   {d, residual, false});
        }
    }
    Mapping m(std::move(levels));
    m.validate(workload_, arch_);
    return m;
}


std::uint64_t
Mapping::signature() const
{
    std::uint64_t h = math::hashCombine(math::kHashSeed, levels_.size());
    for (const LevelNest &nest : levels_) {
        h = math::hashCombine(h, nest.loops.size());
        for (const Loop &loop : nest.loops) {
            h = math::hashCombine(h, static_cast<std::uint64_t>(loop.dim));
            h = math::hashCombine(h, static_cast<std::uint64_t>(loop.bound));
            h = math::hashCombine(h, loop.spatial ? 1 : 0);
        }
        // An empty keep mask (keep-all) hashes differently from an
        // explicit all-true mask; both behave identically, so this only
        // costs an occasional miss.
        h = math::hashCombine(h, nest.keep.size());
        for (bool kept : nest.keep) {
            h = math::hashCombine(h, kept ? 1 : 0);
        }
    }
    return h;
}

} // namespace sparseloop
