/**
 * @file
 * Service context registry and the standard context set.
 */

#include "service/registry.hh"

#include <utility>

#include "apps/designs.hh"
#include "common/logging.hh"
#include "workload/builders.hh"

namespace sparseloop {

ServiceRegistry::ServiceRegistry(std::shared_ptr<EvalCache> cache)
    : cache_(cache ? std::move(cache) : std::make_shared<EvalCache>()),
      warm_(std::make_shared<WarmStartPool>())
{
}

void
ServiceRegistry::addContext(ServiceContextSpec spec)
{
    if (contexts_.count(spec.name) > 0) {
        SL_FATAL("duplicate service context '", spec.name, "'");
    }
    std::string name = spec.name;
    Context ctx{std::move(spec), nullptr};
    ctx.evaluator = std::make_unique<BatchEvaluator>(
        Engine(ctx.spec.arch), cache_);
    contexts_.emplace(std::move(name), std::move(ctx));
}

const ServiceRegistry::Context *
ServiceRegistry::find(const std::string &name) const
{
    auto it = contexts_.find(name);
    return it == contexts_.end() ? nullptr : &it->second;
}

std::vector<std::string>
ServiceRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(contexts_.size());
    for (const auto &[name, ctx] : contexts_) {
        out.push_back(name);
    }
    return out;
}

std::vector<ServiceContextSpec>
standardServiceContexts(std::int64_t m, std::int64_t k, std::int64_t n)
{
    Workload matmul = makeMatmul(m, k, n);
    bindUniformDensities(matmul, {{"A", 0.25}, {"B", 0.5}});

    std::vector<ServiceContextSpec> specs;
    for (auto builder : {apps::buildBitmaskDesign,
                         apps::buildCoordListDesign,
                         apps::buildDenseBaselineDesign}) {
        apps::DesignPoint design = builder(matmul);
        specs.push_back(ServiceContextSpec{
            design.name, matmul, std::move(design.arch),
            std::move(design.safs), std::move(design.mapping)});
    }
    return specs;
}

} // namespace sparseloop
