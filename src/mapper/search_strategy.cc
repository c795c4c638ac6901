/**
 * @file
 * Search-strategy implementations over the mapspace IR. They are
 * private to this file: callers pick one by `SearchStrategyKind`
 * through `makeSearchStrategy`, and each strategy's parameters are
 * fixed constants next to the code that reads them.
 */

#include "mapper/search_strategy.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <random>

#include "common/logging.hh"

namespace sparseloop {

namespace {

/** The next @p count seeded samples: candidate `k` (counted by
 *  @p next) is `space.sampleMapping(seed + k)`, the historical
 *  derivation, so a given `k` yields the same candidate at any batch
 *  size. */
std::vector<SearchCandidate>
seededSamples(const MapSpace &space, std::uint64_t seed,
              std::int64_t &next, int count)
{
    std::vector<SearchCandidate> batch;
    batch.reserve(static_cast<std::size_t>(std::max(0, count)));
    for (int i = 0; i < count; ++i) {
        const std::int64_t k = next++;
        batch.push_back(
            {k, space.sampleMapping(seed + static_cast<std::uint64_t>(k))});
    }
    return batch;
}

// ---------------------------------------------------------------------------
// RandomSearch
// ---------------------------------------------------------------------------

/** Seeded random sampling through the IR (never exhausts). */
class RandomSearch : public SearchStrategy
{
  public:
    RandomSearch(const MapSpace &space, std::uint64_t seed)
        : space_(space), seed_(seed)
    {
    }

    const char *name() const override { return "random"; }

    std::vector<SearchCandidate> propose(int max_count) override
    {
        return seededSamples(space_, seed_, next_, max_count);
    }

  private:
    const MapSpace &space_;
    std::uint64_t seed_;
    std::int64_t next_ = 0;
};

// ---------------------------------------------------------------------------
// ExhaustiveSearch
// ---------------------------------------------------------------------------

/** Duplicate-free walk of an enumerable space. */
class ExhaustiveSearch : public SearchStrategy
{
  public:
    explicit ExhaustiveSearch(const MapSpace &space) : space_(space)
    {
        SL_ASSERT(space_.size().enumerable >= 0,
                  "exhaustive search requires an enumerable mapspace");
    }

    const char *name() const override { return "exhaustive"; }

    std::vector<SearchCandidate> propose(int max_count) override
    {
        std::vector<SearchCandidate> batch;
        const std::int64_t total = space_.size().enumerable;
        while (max_count-- > 0 && next_ < total) {
            batch.push_back({next_, space_.mappingAt(next_)});
            ++next_;
        }
        return batch;
    }

  private:
    const MapSpace &space_;
    std::int64_t next_ = 0;
};

// ---------------------------------------------------------------------------
// RoundStrategy
// ---------------------------------------------------------------------------

/**
 * Shared machinery for strategies that evaluate rounds of
 * `MapSpace::Point`s (hybrid windows and neighborhoods, annealing
 * rounds, genetic generations, hierarchical sweeps). A round's points
 * are fixed up front by `buildRound` and streamed out across `propose`
 * calls; `roundComplete` fires once every point of the round has been
 * observed, so all state updates fall at round boundaries and the
 * proposal sequence — hence the search result — is independent of
 * the driver's batch size. On a mapspace whose tiling axes exceed the
 * materialization limits (`!MapSpace::pointEncodable()`), the strategy
 * warns once and degenerates to `RandomSearch`'s seeded sampling.
 */
class RoundStrategy : public SearchStrategy
{
  public:
    RoundStrategy(const MapSpace &space, std::uint64_t seed)
        : space_(space), seed_(seed), degenerate_(!space.pointEncodable())
    {
    }

    std::vector<SearchCandidate> propose(int max_count) override
    {
        std::vector<SearchCandidate> batch;
        if (max_count <= 0) {
            return batch;
        }
        if (degenerate_) {
            // No coordinate form available: sample exactly like
            // RandomSearch.
            if (next_ == 0) {
                SL_WARN(name(), " search: the mapspace's tiling axes ",
                        "exceed the materialization limits, so ",
                        "candidates cannot be encoded as points; the ",
                        "search degenerates to pure random sampling");
            }
            return seededSamples(space_, seed_, next_, max_count);
        }
        if (round_proposed_ == round_points_.size() &&
            round_observed_ == round_points_.size()) {
            // Previous round fully proposed and observed: fix the next
            // round now. Streaming it out across propose() calls keeps
            // the proposal sequence independent of the driver's batch
            // size.
            round_points_.clear();
            buildRound(round_points_);
            SL_ASSERT(!round_points_.empty(),
                      "a search round must contain at least one point");
            round_proposed_ = 0;
            round_observed_ = 0;
            round_objectives_.assign(
                round_points_.size(),
                std::numeric_limits<double>::infinity());
        }
        std::size_t take = std::min<std::size_t>(
            static_cast<std::size_t>(max_count),
            round_points_.size() - round_proposed_);
        batch.reserve(take);
        for (std::size_t i = 0; i < take; ++i) {
            batch.push_back(
                {next_++,
                 space_.materialize(round_points_[round_proposed_ + i])});
        }
        round_proposed_ += take;
        return batch;
    }

    void observe(const std::vector<SearchCandidate> &batch,
                 const std::vector<double> &objectives) override
    {
        SL_ASSERT(batch.size() == objectives.size(),
                  "objective feedback size mismatch");
        if (degenerate_) {
            return;
        }
        SL_ASSERT(round_observed_ + objectives.size() <= round_proposed_,
                  "observed more candidates than proposed this round");
        for (double obj : objectives) {
            round_objectives_[round_observed_++] = obj;
        }
        if (round_observed_ == round_points_.size()) {
            roundComplete(round_points_, round_objectives_);
        }
    }

  protected:
    /** Fill @p out with the next round's points (must not be empty). */
    virtual void buildRound(std::vector<MapSpace::Point> &out) = 0;
    /** One objective per round point, +infinity for invalid ones. */
    virtual void roundComplete(const std::vector<MapSpace::Point> &points,
                               const std::vector<double> &objectives) = 0;

    /** Draw the next seeded random point (the historical seed + index
     *  derivation shared with `RandomSearch`). */
    MapSpace::Point nextSamplePoint()
    {
        return space_.samplePoint(
            seed_ + static_cast<std::uint64_t>(next_seed_++));
    }

    const MapSpace &space_;
    std::uint64_t seed_;
    bool degenerate_ = false;  ///< tiling axes not materialized

  private:
    std::vector<MapSpace::Point> round_points_;
    std::size_t round_proposed_ = 0;
    std::vector<double> round_objectives_;
    std::size_t round_observed_ = 0;
    std::int64_t next_ = 0;       ///< next proposal index
    std::int64_t next_seed_ = 0;  ///< next random sample offset
};

// ---------------------------------------------------------------------------
// HybridSearch
// ---------------------------------------------------------------------------

/**
 * Random windows and greedy neighborhood refinement over
 * `MapSpace::Point` coordinates. The first round is a random window of
 * `warmup` seeded samples, led by any warm-start points; each later
 * round is the incumbent's full `MapSpace::neighbors`. A neighborhood
 * round with no strictly better point (a local optimum), or an empty
 * neighborhood, is followed by another random window. The incumbent
 * is the first point with the lowest objective seen so far and
 * survives every window.
 */
class HybridSearch : public RoundStrategy
{
  public:
    /**
     * @param warmup seeded samples per random window (the warmup and
     *        every restart).
     */
    HybridSearch(const MapSpace &space, std::uint64_t seed,
                 std::int64_t warmup)
        : RoundStrategy(space, seed),
          warmup_(std::max<std::int64_t>(1, warmup))
    {
    }

    const char *name() const override { return "hybrid"; }

    /** Seeded points lead the first random window; an improving one
     *  becomes the first refinement incumbent. */
    void warmStart(const std::vector<MapSpace::Point> &points) override
    {
        warm_points_ = points;
    }

  protected:
    void buildRound(std::vector<MapSpace::Point> &out) override
    {
        if (incumbent_ && !stalled_) {
            out = space_.neighbors(*incumbent_);
            stalled_ = true;  // until roundComplete sees an improvement
        }
        if (out.empty()) {
            // Random window (warmup or restart); warm-start points lead
            // the first one.
            out.swap(warm_points_);
            for (std::int64_t i = 0; i < warmup_; ++i) {
                out.push_back(nextSamplePoint());
            }
            stalled_ = false;
        }
    }

    void roundComplete(const std::vector<MapSpace::Point> &points,
                       const std::vector<double> &objectives) override
    {
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (objectives[i] < incumbent_obj_) {
                incumbent_ = points[i];
                incumbent_obj_ = objectives[i];
                stalled_ = false;
            }
        }
    }

  private:
    std::int64_t warmup_;
    std::vector<MapSpace::Point> warm_points_;
    std::optional<MapSpace::Point> incumbent_;
    double incumbent_obj_ = std::numeric_limits<double>::infinity();
    bool stalled_ = false;  ///< last neighborhood round did not improve
};

// ---------------------------------------------------------------------------
// AnnealingSearch
// ---------------------------------------------------------------------------

/** Independent Metropolis chains advanced in lockstep; also the
 *  evaluation-round size. */
constexpr int kAnnealingChains = 8;
/** Initial temperature on the relative-worsening scale: a move that
 *  worsens the incumbent objective by 25% is accepted with probability
 *  1/e at the start of the schedule. */
constexpr double kInitialTemperature = 0.25;
/** Temperature the geometric schedule reaches as the budget runs out. */
constexpr double kFinalTemperature = 1e-3;

/**
 * Simulated annealing over `MapSpace::Point` coordinates:
 * `kAnnealingChains` independent Metropolis chains advance in
 * lockstep, one uniformly drawn neighbor move per chain per round,
 * under a shared geometric temperature schedule on the
 * relative-worsening scale. An improving move is always accepted; a
 * worsening one with probability
 * `exp(-relative_worsening / temperature)`, so early rounds explore
 * across objective barriers and late rounds converge like greedy
 * refinement.
 */
class AnnealingSearch : public RoundStrategy
{
  public:
    /** @param budget the driver's sample budget; the cooling factor
     *         spreads the schedule over the rounds it affords. */
    AnnealingSearch(const MapSpace &space, std::uint64_t seed,
                    std::int64_t budget)
        : RoundStrategy(space, seed), chains_(kAnnealingChains)
    {
        // Spread the schedule over the move rounds the budget affords
        // (round 0 seeds the chains and takes no temperature step).
        const std::int64_t rounds =
            std::max<std::int64_t>(1, budget / kAnnealingChains - 1);
        cooling_ = std::pow(kFinalTemperature / kInitialTemperature,
                            1.0 / static_cast<double>(rounds));
        for (std::size_t i = 0; i < chains_.size(); ++i) {
            // Distinct deterministic streams per chain.
            chains_[i].rng.seed(
                seed ^ (0x9E3779B97F4A7C15ull * (i + 1)));
        }
    }

    const char *name() const override { return "annealing"; }

    /** Seeded points become the initial chain states (first
     *  `kAnnealingChains` points; the rest of the chains start from
     *  seeded random samples). */
    void warmStart(const std::vector<MapSpace::Point> &points) override
    {
        warm_points_ = points;
        if (warm_points_.size() > chains_.size()) {
            warm_points_.resize(chains_.size());
        }
    }

  protected:
    void buildRound(std::vector<MapSpace::Point> &out) override
    {
        out.reserve(chains_.size());
        if (!initialized_) {
            // Round 0: seed every chain — warm-start elites first,
            // seeded random samples for the rest.
            for (std::size_t i = 0; i < chains_.size(); ++i) {
                out.push_back(i < warm_points_.size() ? warm_points_[i]
                                                      : nextSamplePoint());
            }
            return;
        }
        // Move round: one uniformly drawn neighbor per chain; an
        // isolated chain teleports to a fresh random point.
        for (Chain &chain : chains_) {
            auto move = space_.randomNeighbor(chain.point, chain.rng);
            out.push_back(move ? *std::move(move) : nextSamplePoint());
        }
    }

    void roundComplete(const std::vector<MapSpace::Point> &points,
                       const std::vector<double> &objectives) override
    {
        if (!initialized_) {
            for (std::size_t i = 0; i < chains_.size(); ++i) {
                chains_[i].point = points[i];
                chains_[i].objective = objectives[i];
            }
            initialized_ = true;
            return;
        }
        for (std::size_t i = 0; i < chains_.size(); ++i) {
            Chain &chain = chains_[i];
            const double current = chain.objective;
            const double candidate = objectives[i];
            bool accept;
            if (candidate < current) {
                accept = true;
            } else if (!std::isfinite(current)) {
                // Both invalid: keep walking so the chain can escape an
                // all-invalid region instead of freezing on it.
                accept = true;
            } else if (!std::isfinite(candidate)) {
                accept = false;
            } else {
                // Metropolis on the relative worsening: scale-free
                // across objectives whose magnitudes differ by orders
                // of magnitude (EDP vs cycles).
                const double scale = std::max(std::abs(current), 1e-300);
                const double worsening = (candidate - current) / scale;
                std::uniform_real_distribution<double> unit(0.0, 1.0);
                accept = unit(chain.rng) <
                    std::exp(-worsening / temperature_);
            }
            if (accept) {
                chain.point = points[i];
                chain.objective = candidate;
            }
        }
        temperature_ *= cooling_;
    }

  private:
    /** One Metropolis chain: its incumbent point and a private RNG
     *  for move selection and acceptance draws. */
    struct Chain
    {
        MapSpace::Point point;
        double objective = 0.0;
        std::mt19937_64 rng;
    };

    double temperature_ = kInitialTemperature;
    double cooling_;
    std::vector<Chain> chains_;
    std::vector<MapSpace::Point> warm_points_;
    bool initialized_ = false;  ///< round 0 (chain seeding) observed
};

// ---------------------------------------------------------------------------
// GeneticSearch
// ---------------------------------------------------------------------------

/** Generation size; generation 0 evaluates this many points. */
constexpr int kPopulation = 24;
/** Members carried into the next generation without re-evaluation. */
constexpr int kElites = 4;
/** Parents are the best of this many uniform draws. */
constexpr int kTournament = 3;
/** Probability that an offspring takes one neighbor move after
 *  crossover. */
constexpr double kMutationRate = 0.25;

/**
 * Genetic search over `MapSpace::Point` coordinates: a population
 * evolved by (objective, age)-ranked tournament selection, axis-wise
 * `MapSpace::crossover`, and neighbor-move mutation. Every offspring
 * is a valid in-space point by construction — crossover recombines
 * per-axis coordinates of the constraint-pruned space and
 * `MapSpace::reconcile` repairs cross-axis consistency, so no
 * candidate is ever generated and then rejected. Elites carry across
 * generations without re-evaluation, so the whole budget is spent on
 * new candidates.
 */
class GeneticSearch : public RoundStrategy
{
  public:
    GeneticSearch(const MapSpace &space, std::uint64_t seed)
        : RoundStrategy(space, seed), rng_(seed ^ 0xA5A5F00DCAFEBEEFull)
    {
    }

    const char *name() const override { return "genetic"; }

    /** Seeded points join generation 0 (first `kPopulation` points;
     *  seeded random samples fill the remainder). */
    void warmStart(const std::vector<MapSpace::Point> &points) override
    {
        warm_points_ = points;
        if (warm_points_.size() > std::size_t{kPopulation}) {
            warm_points_.resize(kPopulation);
        }
    }

  protected:
    void buildRound(std::vector<MapSpace::Point> &out) override
    {
        round_births_.clear();
        if (parents_.empty()) {
            // Generation 0: warm-start elites first, seeded samples
            // after.
            out.reserve(kPopulation);
            for (std::size_t i = 0; i < kPopulation; ++i) {
                out.push_back(i < warm_points_.size() ? warm_points_[i]
                                                      : nextSamplePoint());
                round_births_.push_back(next_birth_++);
            }
            return;
        }
        // Elites survive as-is (their objectives are already known, so
        // they are not re-proposed); the rest of the generation is
        // bred.
        const std::vector<std::size_t> order = ranked(parents_);
        carried_.clear();
        for (std::size_t e = 0; e < kElites; ++e) {
            carried_.push_back(parents_[order[e]]);
        }
        out.reserve(kPopulation - kElites);
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        for (int i = 0; i < kPopulation - kElites; ++i) {
            const Member &pa = parents_[selectParent()];
            const Member &pb = parents_[selectParent()];
            MapSpace::Point child =
                space_.crossover(pa.point, pb.point, rng_);
            if (unit(rng_) < kMutationRate) {
                if (auto move = space_.randomNeighbor(child, rng_)) {
                    child = *std::move(move);
                }
            }
            out.push_back(std::move(child));
            round_births_.push_back(next_birth_++);
        }
    }

    void roundComplete(const std::vector<MapSpace::Point> &points,
                       const std::vector<double> &objectives) override
    {
        std::vector<Member> next = std::move(carried_);
        carried_.clear();
        next.reserve(next.size() + points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            next.push_back({points[i], objectives[i], round_births_[i]});
        }
        parents_ = std::move(next);
    }

  private:
    /** One evaluated population member; `birth` (the member's creation
     *  rank) breaks objective ties deterministically, older first. */
    struct Member
    {
        MapSpace::Point point;
        double objective;
        std::int64_t birth;
    };

    /** Indices of @p members ranked best-first by (objective, birth). */
    static std::vector<std::size_t>
    ranked(const std::vector<Member> &members)
    {
        std::vector<std::size_t> order(members.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (members[a].objective != members[b].objective) {
                          return members[a].objective <
                              members[b].objective;
                      }
                      return members[a].birth < members[b].birth;
                  });
        return order;
    }

    /** Tournament-select one member index (best of `kTournament`
     *  uniform draws). */
    std::size_t selectParent()
    {
        std::uniform_int_distribution<std::size_t> pick(
            0, parents_.size() - 1);
        std::size_t best = pick(rng_);
        for (int t = 1; t < kTournament; ++t) {
            std::size_t challenger = pick(rng_);
            const Member &a = parents_[best];
            const Member &b = parents_[challenger];
            if (b.objective < a.objective ||
                (b.objective == a.objective && b.birth < a.birth)) {
                best = challenger;
            }
        }
        return best;
    }

    std::mt19937_64 rng_;
    std::vector<Member> parents_;   ///< last completed generation
    std::vector<Member> carried_;   ///< elites carried into this round
    std::vector<std::int64_t> round_births_;
    std::vector<MapSpace::Point> warm_points_;
    std::int64_t next_birth_ = 0;
};

// ---------------------------------------------------------------------------
// HierarchicalSearch
// ---------------------------------------------------------------------------

/** Round size of the coarse sweep and of the random fallback phase. */
constexpr std::size_t kHierarchicalRound = 64;
/** Coarse winners refined concurrently by greedy neighborhood descent. */
constexpr int kRefineWidth = 4;
/** Keep-mask combinations scored per tiling in the coarse phase
 *  (strided evenly across the joint keep axis). */
constexpr int kKeepsPerTiling = 8;

/**
 * Coarse-then-refine search for spaces whose fine axes (loop orders,
 * spatial picks) drown the budget: phase one spends half the budget
 * sweeping the coarse quotient — tiling shapes crossed with keep-mask
 * combinations, each represented by one canonical-order mapping from
 * `MapSpace::coarsePoints` — and phase two spends the rest on greedy
 * neighborhood descent from the best `kRefineWidth` coarse cells,
 * sharpening their loop orders, spatial picks, and tilings
 * concurrently. A stalled incumbent (no improving neighbor in a full
 * round) is retired; when every incumbent has stalled the remaining
 * budget falls back to seeded random sampling.
 */
class HierarchicalSearch : public RoundStrategy
{
  public:
    /** @param budget the driver's sample budget; half of it (at least
     *         one proposal) sizes the coarse phase. */
    HierarchicalSearch(const MapSpace &space, std::uint64_t seed,
                       std::int64_t budget)
        : RoundStrategy(space, seed)
    {
        if (degenerate_) {
            return;  // base class falls back to seeded random sampling
        }
        // Coarse axis: every tiling when they fit the allowance, an
        // even stride over the tiling index range otherwise.
        const std::int64_t coarse_budget =
            std::max<std::int64_t>(1, budget / 2);
        const std::int64_t tilings = space_.tilingCount();
        const std::int64_t want_tilings = std::max<std::int64_t>(
            1, coarse_budget / kKeepsPerTiling);
        const std::int64_t n = std::min(tilings, want_tilings);
        for (std::int64_t i = 0; i < n; ++i) {
            const std::int64_t t =
                tilings <= want_tilings ? i : i * (tilings / n);
            for (MapSpace::Point &p :
                 space_.coarsePoints(t, kKeepsPerTiling)) {
                coarse_pending_.push_back(std::move(p));
            }
        }
    }

    const char *name() const override { return "hierarchical"; }

    /** Seeded points are scored ahead of the coarse sweep and compete
     *  for the refinement slots like any coarse cell. */
    void warmStart(const std::vector<MapSpace::Point> &points) override
    {
        if (!degenerate_) {
            coarse_pending_.insert(coarse_pending_.begin(), points.begin(),
                                   points.end());
        }
    }

  protected:
    void buildRound(std::vector<MapSpace::Point> &out) override
    {
        if (!coarse_done_) {
            const std::size_t take =
                std::min(kHierarchicalRound,
                         coarse_pending_.size() - coarse_next_);
            out.reserve(take);
            for (std::size_t i = 0; i < take; ++i) {
                out.push_back(coarse_pending_[coarse_next_ + i]);
            }
            return;
        }
        // Refinement: one full neighborhood per surviving incumbent,
        // streamed as a single round. The improve-or-retire decision
        // per incumbent falls at the round boundary.
        refine_slices_.clear();
        for (const Scored &inc : incumbents_) {
            const std::size_t begin = out.size();
            for (MapSpace::Point &p : space_.neighbors(inc.point)) {
                out.push_back(std::move(p));
            }
            refine_slices_.emplace_back(begin, out.size());
        }
        if (out.empty()) {
            // Every incumbent stalled (or is isolated): spend the rest
            // of the budget on seeded random exploration.
            incumbents_.clear();
            out.reserve(kHierarchicalRound);
            for (std::size_t i = 0; i < kHierarchicalRound; ++i) {
                out.push_back(nextSamplePoint());
            }
            refine_slices_.clear();
        }
    }

    void roundComplete(const std::vector<MapSpace::Point> &points,
                       const std::vector<double> &objectives) override
    {
        if (!coarse_done_) {
            for (std::size_t i = 0; i < points.size(); ++i) {
                coarse_scored_.push_back(
                    {points[i], objectives[i], next_order_++});
            }
            coarse_next_ += points.size();
            if (coarse_next_ < coarse_pending_.size()) {
                return;
            }
            // Coarse phase over: the best cells seed the refinement.
            coarse_done_ = true;
            std::sort(coarse_scored_.begin(), coarse_scored_.end(),
                      [](const Scored &a, const Scored &b) {
                          if (a.objective != b.objective) {
                              return a.objective < b.objective;
                          }
                          return a.order < b.order;
                      });
            for (const Scored &s : coarse_scored_) {
                if (!std::isfinite(s.objective) ||
                    incumbents_.size() >= std::size_t{kRefineWidth}) {
                    break;
                }
                incumbents_.push_back(s);
            }
            coarse_scored_.clear();
            coarse_pending_.clear();
            return;
        }
        if (refine_slices_.empty()) {
            return;  // random fallback round: nothing to update
        }
        // Greedy step per incumbent: move to its best strictly
        // improving neighbor (ties broken by position), retire it
        // otherwise.
        std::vector<Scored> survivors;
        for (std::size_t k = 0; k < incumbents_.size(); ++k) {
            const auto [begin, end] = refine_slices_[k];
            std::size_t best = begin;
            for (std::size_t i = begin; i < end; ++i) {
                if (objectives[i] < objectives[best]) {
                    best = i;
                }
            }
            if (begin < end &&
                objectives[best] < incumbents_[k].objective) {
                survivors.push_back(
                    {points[best], objectives[best], next_order_++});
            }
        }
        incumbents_ = std::move(survivors);
    }

  private:
    /** A scored coarse cell / refinement incumbent. */
    struct Scored
    {
        MapSpace::Point point;
        double objective = 0.0;
        std::int64_t order = 0;  ///< scoring rank (deterministic ties)
    };

    /** Coarse representatives not yet proposed (warm starts first). */
    std::vector<MapSpace::Point> coarse_pending_;
    std::size_t coarse_next_ = 0;
    /** Everything scored during the coarse phase. */
    std::vector<Scored> coarse_scored_;
    bool coarse_done_ = false;
    /** Active refinement incumbents (at most `kRefineWidth`). */
    std::vector<Scored> incumbents_;
    /** Per-incumbent [begin, end) slices of the current refinement
     *  round's point list. */
    std::vector<std::pair<std::size_t, std::size_t>> refine_slices_;
    std::int64_t next_order_ = 0;
};

} // namespace

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<SearchStrategy>
makeSearchStrategy(SearchStrategyKind kind, const MapSpace &space,
                   std::uint64_t seed, std::int64_t budget,
                   const SearchTuning &tuning)
{
    if (kind == SearchStrategyKind::Auto) {
        const std::int64_t enumerable = space.size().enumerable;
        kind = (enumerable >= 0 && enumerable <= budget)
            ? SearchStrategyKind::Exhaustive
            : SearchStrategyKind::Random;
    }
    switch (kind) {
      case SearchStrategyKind::Random:
        return std::make_unique<RandomSearch>(space, seed);
      case SearchStrategyKind::Exhaustive:
        if (space.size().enumerable < 0) {
            SL_FATAL("exhaustive search requested but the mapspace is ",
                     "not enumerable (~", space.size().points,
                     " points exceed the enumeration limits); ",
                     "use a sampling strategy such as Random or Hybrid");
        }
        return std::make_unique<ExhaustiveSearch>(space);
      case SearchStrategyKind::Hybrid: {
        std::int64_t warmup = tuning.hybrid_warmup > 0
            ? tuning.hybrid_warmup
            : std::max<std::int64_t>(1, budget / 4);
        return std::make_unique<HybridSearch>(space, seed, warmup);
      }
      case SearchStrategyKind::Annealing:
        return std::make_unique<AnnealingSearch>(space, seed, budget);
      case SearchStrategyKind::Genetic:
        return std::make_unique<GeneticSearch>(space, seed);
      case SearchStrategyKind::Hierarchical:
        return std::make_unique<HierarchicalSearch>(space, seed, budget);
      case SearchStrategyKind::Auto:
        break;
    }
    SL_PANIC("unknown search strategy kind");
}

} // namespace sparseloop
