/**
 * @file
 * The daemon's evaluation contexts: the server side of the protocol's
 * context-by-name model.
 *
 * A `Workload`, `Architecture`, and `SafSpec` do not cross the wire —
 * they carry polymorphic density models and builder-produced
 * structure that both ends already know how to construct. Instead the
 * daemon registers named *contexts* (workload + architecture + SAF
 * spec + a canonical mapping) before it starts serving, and requests
 * reference them by name, shipping only `Mapping`s and options. This
 * mirrors how a production evaluation service deploys: design points
 * are configuration, mappings and search budgets are traffic.
 *
 * Every context shares one `EvalCache` and one `WarmStartPool`
 * (`EvalKey`s cover the engine configuration, so sharing is always
 * safe), which is exactly what makes concurrent sweeps — and, with
 * service/persistence.hh, restarted daemons — share hits.
 */

#ifndef SPARSELOOP_SERVICE_REGISTRY_HH
#define SPARSELOOP_SERVICE_REGISTRY_HH

#include <map>
#include <memory>

#include "model/batch_evaluator.hh"
#include "mapper/warm_start.hh"
#include "sparse/saf.hh"

namespace sparseloop {

/** One registered design point, as configured by the daemon owner. */
struct ServiceContextSpec
{
    std::string name;
    Workload workload;
    Architecture arch;
    SafSpec safs;
    /** A known-good mapping for this design (the design zoo's own),
     *  used by clients that want a point to evaluate without running
     *  a search — e.g. the CLI smoke path. */
    Mapping canonical;
};

/**
 * The immutable-after-start context table plus the shared cache and
 * warm-start pool. `addContext` may only be called before the server
 * starts serving; all other members are const and thread-safe.
 */
class ServiceRegistry
{
  public:
    struct Context
    {
        ServiceContextSpec spec;
        /** Shares the registry-wide cache. */
        std::unique_ptr<BatchEvaluator> evaluator;
    };

    /** @param cache shared cache; null creates one. */
    explicit ServiceRegistry(std::shared_ptr<EvalCache> cache = nullptr);

    /** Register a context (fatal on a duplicate name). */
    void addContext(ServiceContextSpec spec);

    /** Look up a context, or null when the name is unknown. */
    const Context *find(const std::string &name) const;

    /** Registered context names, sorted. */
    std::vector<std::string> names() const;

    std::size_t contextCount() const { return contexts_.size(); }

    EvalCache &cache() const { return *cache_; }
    const std::shared_ptr<EvalCache> &cachePtr() const { return cache_; }
    WarmStartPool &warmStart() const { return *warm_; }
    const std::shared_ptr<WarmStartPool> &warmStartPtr() const
    {
        return warm_;
    }

  private:
    std::shared_ptr<EvalCache> cache_;
    std::shared_ptr<WarmStartPool> warm_;
    std::map<std::string, Context> contexts_;
};

/**
 * The standard context set served by `sparseloop_cli serve` and the
 * loopback tests: the Fig. 1 bitmask / coordinate-list / dense
 * designs over one sparse matmul (A 25% dense, B 50%). Client and
 * server builds of the same tree agree on these by construction.
 */
std::vector<ServiceContextSpec>
standardServiceContexts(std::int64_t m = 64, std::int64_t k = 64,
                        std::int64_t n = 64);

} // namespace sparseloop

#endif // SPARSELOOP_SERVICE_REGISTRY_HH
