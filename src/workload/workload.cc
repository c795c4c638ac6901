/**
 * @file
 * Workload implementation.
 */

#include "workload/workload.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/mathutil.hh"

namespace sparseloop {

Workload::Workload(std::string name, std::vector<WorkloadDim> dims,
                   std::vector<DataSpace> tensors)
    : name_(std::move(name)), dims_(std::move(dims)),
      tensors_(std::move(tensors))
{
    if (dims_.empty()) {
        SL_FATAL("workload ", name_, " has no dimensions");
    }
    if (tensors_.empty()) {
        SL_FATAL("workload ", name_, " has no tensors");
    }
    for (const auto &d : dims_) {
        if (d.bound < 1) {
            SL_FATAL("dimension ", d.name, " has non-positive bound ",
                     d.bound);
        }
    }
    int outputs = 0;
    relevance_.resize(tensors_.size());
    for (std::size_t t = 0; t < tensors_.size(); ++t) {
        const auto &ds = tensors_[t];
        if (ds.is_output) {
            ++outputs;
        }
        if (ds.projection.empty()) {
            SL_FATAL("tensor ", ds.name, " has no projection");
        }
        relevance_[t].assign(dims_.size(), false);
        for (const auto &rank_proj : ds.projection) {
            for (const auto &term : rank_proj) {
                if (term.dim < 0 ||
                    term.dim >= static_cast<int>(dims_.size())) {
                    SL_FATAL("tensor ", ds.name,
                             " projects onto unknown dimension ",
                             term.dim);
                }
                if (term.coef != 0) {
                    relevance_[t][term.dim] = true;
                }
            }
        }
    }
    if (outputs != 1) {
        SL_FATAL("workload must have exactly one output tensor, found ",
                 outputs);
    }
}

int
Workload::dimIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < dims_.size(); ++i) {
        if (dims_[i].name == name) {
            return static_cast<int>(i);
        }
    }
    SL_FATAL("unknown dimension '", name, "' in workload ", name_);
}

int
Workload::tensorIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < tensors_.size(); ++i) {
        if (tensors_[i].name == name) {
            return static_cast<int>(i);
        }
    }
    SL_FATAL("unknown tensor '", name, "' in workload ", name_);
}

void
Workload::setDensity(int t, DensityModelPtr model)
{
    if (t < 0 || t >= tensorCount()) {
        SL_FATAL("setDensity: tensor index ", t, " is out of range [0, ",
                 tensorCount(), ") in workload ", name_);
    }
    tensors_[t].density = std::move(model);
}

int
Workload::outputTensor() const
{
    for (std::size_t i = 0; i < tensors_.size(); ++i) {
        if (tensors_[i].is_output) {
            return static_cast<int>(i);
        }
    }
    SL_PANIC("no output tensor");
}

std::int64_t
Workload::denseComputeCount() const
{
    std::int64_t total = 1;
    for (const auto &d : dims_) {
        total *= d.bound;
    }
    return total;
}

Shape
Workload::tensorTileExtents(int t,
                            const std::vector<std::int64_t> &dim_tiles)
                            const
{
    SL_ASSERT(dim_tiles.size() == dims_.size(), "dim tile count mismatch");
    const auto &proj = tensors_[t].projection;
    Shape extents(proj.size(), 1);
    for (std::size_t r = 0; r < proj.size(); ++r) {
        std::int64_t extent = 1;
        for (const auto &term : proj[r]) {
            extent += term.coef * (dim_tiles[term.dim] - 1);
        }
        extents[r] = std::max<std::int64_t>(1, extent);
    }
    return extents;
}

Shape
Workload::tensorShape(int t) const
{
    std::vector<std::int64_t> full(dims_.size());
    for (std::size_t d = 0; d < dims_.size(); ++d) {
        full[d] = dims_[d].bound;
    }
    return tensorTileExtents(t, full);
}

Point
Workload::project(int t, const Point &iter_point) const
{
    SL_ASSERT(iter_point.size() == dims_.size(), "iteration point rank");
    const auto &proj = tensors_[t].projection;
    Point p(proj.size(), 0);
    for (std::size_t r = 0; r < proj.size(); ++r) {
        std::int64_t coord = 0;
        for (const auto &term : proj[r]) {
            coord += term.coef * iter_point[term.dim];
        }
        p[r] = coord;
    }
    return p;
}


std::uint64_t
Workload::signature() const
{
    // The workload's display name is decorative (results never depend
    // on it), so identically-shaped workloads named differently — e.g.
    // a network's repeated layers — share cache entries.
    std::uint64_t h = math::hashCombine(math::kHashSeed, dims_.size());
    for (const WorkloadDim &d : dims_) {
        h = math::hashString(h, d.name);
        h = math::hashCombine(h, static_cast<std::uint64_t>(d.bound));
    }
    h = math::hashCombine(h, tensors_.size());
    for (const DataSpace &t : tensors_) {
        h = math::hashString(h, t.name);
        h = math::hashCombine(h, t.is_output ? 1 : 0);
        h = math::hashCombine(h, t.projection.size());
        for (const RankProjection &rank : t.projection) {
            h = math::hashCombine(h, rank.size());
            for (const ProjectionTerm &term : rank) {
                h = math::hashCombine(h, static_cast<std::uint64_t>(term.dim));
                h = math::hashCombine(h, static_cast<std::uint64_t>(term.coef));
            }
        }
        h = math::hashCombine(h, t.density ? t.density->signature() : 0);
    }
    return h;
}

} // namespace sparseloop
