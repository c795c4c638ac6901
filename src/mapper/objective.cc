/**
 * @file
 * Objective specs, metric extraction, and the Pareto archive.
 */

#include "mapper/objective.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace sparseloop {

const char *
toString(Metric metric)
{
    switch (metric) {
      case Metric::Cycles: return "cycles";
      case Metric::Energy: return "energy";
      case Metric::Edp: return "edp";
      case Metric::PeakCapacity: return "peak-capacity";
      case Metric::MetadataOverhead: return "metadata-overhead";
    }
    SL_PANIC("unknown metric");
}

MetricVector
MetricVector::of(const EvalResult &eval)
{
    MetricVector m;
    m.at(Metric::Cycles) = eval.cycles;
    m.at(Metric::Energy) = eval.energy_pj;
    m.at(Metric::Edp) = eval.edp();
    m.at(Metric::PeakCapacity) = eval.peakCapacityWords();
    m.at(Metric::MetadataOverhead) = eval.metadataOverheadWords();
    return m;
}

// ---------------------------------------------------------------------------
// ObjectiveSpec
// ---------------------------------------------------------------------------

namespace {

/** Exact-double three-way comparison (the historical `<` / `==`). */
int
compareScalar(double a, double b)
{
    if (a < b) {
        return -1;
    }
    if (b < a) {
        return 1;
    }
    return 0;
}

} // namespace

ObjectiveSpec
ObjectiveSpec::single(Metric metric)
{
    ObjectiveSpec spec;
    spec.primary_ = metric;
    return spec;
}

ObjectiveSpec
ObjectiveSpec::withFrontMetrics(std::vector<Metric> metrics) const
{
    if (metrics.empty()) {
        SL_FATAL("ObjectiveSpec::withFrontMetrics: a Pareto front ",
                 "needs at least one metric");
    }
    ObjectiveSpec spec = *this;
    spec.front_ = std::move(metrics);
    return spec;
}

int
ObjectiveSpec::compare(const MetricVector &a, const MetricVector &b) const
{
    return compareScalar(scalarize(a), scalarize(b));
}

bool
ObjectiveSpec::better(const MetricVector &a, std::int64_t index_a,
                      const MetricVector &b, std::int64_t index_b) const
{
    const int c = compare(a, b);
    if (c != 0) {
        return c < 0;
    }
    return index_a < index_b;
}

// ---------------------------------------------------------------------------
// ParetoArchive
// ---------------------------------------------------------------------------

ParetoArchive::ParetoArchive(std::vector<Metric> metrics,
                             std::size_t capacity)
    : metrics_(std::move(metrics)), capacity_(capacity)
{
    if (metrics_.empty()) {
        SL_FATAL("ParetoArchive: a Pareto archive needs at least one ",
                 "metric");
    }
}

bool
ParetoArchive::dominates(const MetricVector &a,
                         const MetricVector &b) const
{
    bool strictly = false;
    for (Metric m : metrics_) {
        if (a.at(m) > b.at(m)) {
            return false;
        }
        if (a.at(m) < b.at(m)) {
            strictly = true;
        }
    }
    return strictly;
}

bool
ParetoArchive::insert(const Mapping &mapping, const MetricVector &metrics,
                      std::int64_t index)
{
    if (capacity_ == 0) {
        return false;
    }
    // Reject a dominated or duplicate candidate (the earlier proposal
    // wins the dedupe: the drivers insert in proposal order).
    auto equalOn = [&](const MetricVector &a, const MetricVector &b) {
        for (Metric m : metrics_) {
            if (a.at(m) != b.at(m)) {
                return false;
            }
        }
        return true;
    };
    for (const ParetoEntry &entry : entries_) {
        if (dominates(entry.metrics, metrics) ||
            equalOn(entry.metrics, metrics)) {
            return false;
        }
    }
    // The candidate joins the front: drop everything it dominates.
    entries_.erase(
        std::remove_if(entries_.begin(), entries_.end(),
                       [&](const ParetoEntry &entry) {
                           return dominates(metrics, entry.metrics);
                       }),
        entries_.end());
    ParetoEntry entry{index, metrics, mapping};
    const Metric m0 = metrics_.front();
    auto pos = std::upper_bound(
        entries_.begin(), entries_.end(), entry,
        [&](const ParetoEntry &a, const ParetoEntry &b) {
            if (a.metrics.at(m0) != b.metrics.at(m0)) {
                return a.metrics.at(m0) < b.metrics.at(m0);
            }
            return a.index < b.index;
        });
    entries_.insert(pos, std::move(entry));
    if (entries_.size() > capacity_) {
        evictMostCrowded();
    }
    return std::any_of(entries_.begin(), entries_.end(),
                       [&](const ParetoEntry &e) {
                           return e.index == index;
                       });
}

std::vector<double>
ParetoArchive::crowdingDistances() const
{
    const std::size_t n = entries_.size();
    std::vector<double> distance(n, 0.0);
    if (n == 0) {
        return distance;
    }
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<std::size_t> order(n);
    for (Metric m : metrics_) {
        for (std::size_t i = 0; i < n; ++i) {
            order[i] = i;
        }
        // Deterministic per-metric order: value, then proposal index.
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      const double va = entries_[a].metrics.at(m);
                      const double vb = entries_[b].metrics.at(m);
                      if (va != vb) {
                          return va < vb;
                      }
                      return entries_[a].index < entries_[b].index;
                  });
        distance[order.front()] = kInf;
        distance[order.back()] = kInf;
        const double span = entries_[order.back()].metrics.at(m) -
            entries_[order.front()].metrics.at(m);
        if (span <= 0.0) {
            continue;
        }
        for (std::size_t i = 1; i + 1 < n; ++i) {
            distance[order[i]] +=
                (entries_[order[i + 1]].metrics.at(m) -
                 entries_[order[i - 1]].metrics.at(m)) /
                span;
        }
    }
    return distance;
}

void
ParetoArchive::evictMostCrowded()
{
    const std::vector<double> distance = crowdingDistances();
    std::size_t victim = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
        // Smallest crowding distance loses; the later proposal loses
        // ties, so the kept set is a deterministic crowding-ordered
        // prefix.
        if (distance[i] < distance[victim] ||
            (distance[i] == distance[victim] &&
             entries_[i].index > entries_[victim].index)) {
            victim = i;
        }
    }
    entries_.erase(entries_.begin() +
                   static_cast<std::ptrdiff_t>(victim));
}

std::vector<ParetoEntry>
ParetoArchive::takeEntries()
{
    std::vector<ParetoEntry> out = std::move(entries_);
    entries_.clear();
    return out;
}

double
hypervolume2d(const std::vector<ParetoEntry> &front,
              const std::vector<Metric> &metrics,
              const MetricVector &reference)
{
    if (metrics.size() != 2) {
        SL_FATAL("hypervolume2d needs exactly two metrics, got ",
                 metrics.size());
    }
    const Metric mx = metrics[0];
    const Metric my = metrics[1];
    const double rx = reference.at(mx);
    const double ry = reference.at(my);
    // Keep only points strictly inside the reference box; for a
    // mutually non-dominated set this leaves x strictly increasing
    // and y strictly decreasing.
    std::vector<std::pair<double, double>> pts;
    pts.reserve(front.size());
    for (const ParetoEntry &entry : front) {
        const double x = entry.metrics.at(mx);
        const double y = entry.metrics.at(my);
        if (x < rx && y < ry) {
            pts.push_back({x, y});
        }
    }
    std::sort(pts.begin(), pts.end());
    double area = 0.0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const double next_x = i + 1 < pts.size() ? pts[i + 1].first : rx;
        area += (next_x - pts[i].first) * (ry - pts[i].second);
    }
    return area;
}

} // namespace sparseloop
