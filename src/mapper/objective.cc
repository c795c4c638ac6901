/**
 * @file
 * Objective specs, metric extraction, and the Pareto archive.
 */

#include "mapper/objective.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
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

/** The default Pareto dimensions: the canonical co-design trade-off. */
std::vector<Metric>
defaultFrontMetrics()
{
    return {Metric::Cycles, Metric::Energy};
}

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

ObjectiveSpec::ObjectiveSpec()
    : form_(Form::Single), primary_(Metric::Edp),
      front_(defaultFrontMetrics())
{
}

ObjectiveSpec
ObjectiveSpec::single(Metric metric)
{
    ObjectiveSpec spec;
    spec.form_ = Form::Single;
    spec.primary_ = metric;
    return spec;
}

ObjectiveSpec
ObjectiveSpec::weightedSum(std::vector<Term> terms)
{
    SL_ASSERT(!terms.empty(),
              "a weighted-sum objective needs at least one term");
    ObjectiveSpec spec;
    spec.form_ = Form::WeightedSum;
    spec.primary_ = terms.front().metric;
    spec.terms_ = std::move(terms);
    return spec;
}

ObjectiveSpec
ObjectiveSpec::lexicographic(std::vector<Metric> metrics)
{
    SL_ASSERT(!metrics.empty(),
              "a lexicographic objective needs at least one metric");
    ObjectiveSpec spec;
    spec.form_ = Form::Lexicographic;
    spec.primary_ = metrics.front();
    spec.terms_.reserve(metrics.size());
    for (Metric m : metrics) {
        spec.terms_.push_back({m, 1.0});
    }
    return spec;
}

ObjectiveSpec
ObjectiveSpec::constrained(Metric primary, std::vector<Bound> bounds)
{
    ObjectiveSpec spec;
    spec.form_ = Form::Constrained;
    spec.primary_ = primary;
    spec.bounds_ = std::move(bounds);
    return spec;
}

ObjectiveSpec
ObjectiveSpec::withFrontMetrics(std::vector<Metric> metrics) const
{
    SL_ASSERT(!metrics.empty(),
              "a Pareto front needs at least one metric");
    ObjectiveSpec spec = *this;
    spec.front_ = std::move(metrics);
    return spec;
}

bool
ObjectiveSpec::feasible(const MetricVector &m) const
{
    for (const Bound &bound : bounds_) {
        if (m.at(bound.metric) > bound.cap) {
            return false;
        }
    }
    return true;
}

double
ObjectiveSpec::violation(const MetricVector &m) const
{
    double total = 0.0;
    for (const Bound &bound : bounds_) {
        const double value = m.at(bound.metric);
        if (value > bound.cap) {
            total += (value - bound.cap) / std::max(bound.cap, 1.0);
        }
    }
    return total;
}

double
ObjectiveSpec::scalarize(const MetricVector &m) const
{
    switch (form_) {
      case Form::Single:
        return m.at(primary_);
      case Form::WeightedSum: {
        double sum = 0.0;
        for (const Term &term : terms_) {
            sum += term.weight * m.at(term.metric);
        }
        return sum;
      }
      case Form::Lexicographic:
        return m.at(primary_);
      case Form::Constrained:
        return feasible(m)
            ? m.at(primary_)
            : std::numeric_limits<double>::infinity();
    }
    SL_PANIC("unknown objective form");
}

int
ObjectiveSpec::compare(const MetricVector &a, const MetricVector &b) const
{
    switch (form_) {
      case Form::Single:
      case Form::WeightedSum:
        return compareScalar(scalarize(a), scalarize(b));
      case Form::Lexicographic:
        for (const Term &term : terms_) {
            int c = compareScalar(a.at(term.metric), b.at(term.metric));
            if (c != 0) {
                return c;
            }
        }
        return 0;
      case Form::Constrained: {
        // One pass per vector: feasibility and total violation come
        // from the same bound scan (feasible() + violation() used to
        // walk the bounds twice per vector).
        bool fa = true;
        bool fb = true;
        double va = 0.0;
        double vb = 0.0;
        for (const Bound &bound : bounds_) {
            const double cap_norm = std::max(bound.cap, 1.0);
            const double value_a = a.at(bound.metric);
            if (value_a > bound.cap) {
                fa = false;
                va += (value_a - bound.cap) / cap_norm;
            }
            const double value_b = b.at(bound.metric);
            if (value_b > bound.cap) {
                fb = false;
                vb += (value_b - bound.cap) / cap_norm;
            }
        }
        if (fa != fb) {
            return fa ? -1 : 1;
        }
        if (!fa) {
            // Both infeasible: least total violation first, so a
            // search in an all-infeasible region still descends
            // toward the feasible set.
            int c = compareScalar(va, vb);
            if (c != 0) {
                return c;
            }
        }
        return compareScalar(a.at(primary_), b.at(primary_));
      }
    }
    SL_PANIC("unknown objective form");
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

std::string
ObjectiveSpec::describe() const
{
    auto num = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g", v);
        return std::string(buf);
    };
    switch (form_) {
      case Form::Single:
        return std::string("min ") + toString(primary_);
      case Form::WeightedSum: {
        std::string out = "min";
        const char *sep = " ";
        for (const Term &term : terms_) {
            out += sep + num(term.weight) + "*" + toString(term.metric);
            sep = " + ";
        }
        return out;
      }
      case Form::Lexicographic: {
        std::string out = "min lex(";
        const char *sep = "";
        for (const Term &term : terms_) {
            out += sep + std::string(toString(term.metric));
            sep = ", ";
        }
        return out + ")";
      }
      case Form::Constrained: {
        std::string out = std::string("min ") + toString(primary_);
        const char *sep = " s.t. ";
        for (const Bound &bound : bounds_) {
            out += sep + std::string(toString(bound.metric)) +
                " <= " + num(bound.cap);
            sep = ", ";
        }
        return out;
      }
    }
    SL_PANIC("unknown objective form");
}

// ---------------------------------------------------------------------------
// ParetoArchive
// ---------------------------------------------------------------------------

ParetoArchive::ParetoArchive(std::vector<Metric> metrics,
                             std::size_t capacity)
    : metrics_(std::move(metrics)), capacity_(capacity)
{
    SL_ASSERT(!metrics_.empty(),
              "a Pareto archive needs at least one metric");
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
    SL_ASSERT(metrics.size() == 2,
              "hypervolume2d needs exactly two metrics");
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
