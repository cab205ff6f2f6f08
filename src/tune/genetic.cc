/**
 * @file
 * Generational genetic search (optimizer "genetic") and the optimizer
 * factory. See optimizer.h for the determinism contract.
 */
#include <algorithm>

#include "tune/optimizer.h"

namespace tacc::tune {

std::unique_ptr<Optimizer> make_sa_optimizer(ParamSpace space,
                                             const OptimizerConfig &cfg);

namespace {

class GeneticOptimizer final : public Optimizer
{
  public:
    GeneticOptimizer(ParamSpace space, const OptimizerConfig &cfg)
        : space_(std::move(space)), cfg_(cfg), rng_(cfg.seed)
    {
        // Generation 0: the default configuration plus random
        // individuals (same never-worse-than-default anchor as SA's
        // chain 0).
        generation_.push_back({cfg_.start, 0});
        for (int i = 1; i < cfg_.population; ++i) {
            Candidate cand;
            cand.chain = i;
            for (const ParamDim &dim : space_.dims())
                cand.values.push_back(rng_.uniform(dim.lo, dim.hi));
            cand.values = space_.clamp(std::move(cand.values));
            generation_.push_back(std::move(cand));
        }
    }

    std::string name() const override { return "genetic"; }

    std::vector<Candidate>
    propose(size_t max_batch) override
    {
        if (next_ == generation_.size() &&
            scored_.size() == generation_.size())
            evolve();
        std::vector<Candidate> round;
        while (next_ < generation_.size() && round.size() < max_batch)
            round.push_back(generation_[next_++]);
        return round;
    }

    void
    observe(const std::vector<double> &objectives,
            std::vector<bool> *accepted) override
    {
        const size_t base = scored_.size();
        for (size_t i = 0;
             i < objectives.size() && base + i < generation_.size(); ++i) {
            scored_.push_back(
                {generation_[base + i].values, objectives[i]});
            if (accepted) {
                accepted->push_back(!have_best_ ||
                                    objectives[i] < prev_best_);
            }
        }
    }

  private:
    struct Scored {
        std::vector<double> values;
        double obj;
    };

    void
    evolve()
    {
        // Stable sort on objective only: equal scores keep proposal
        // order, so the ranking (and every RNG draw below) is a pure
        // function of the observed objectives.
        std::stable_sort(scored_.begin(), scored_.end(),
                         [](const Scored &a, const Scored &b) {
                             return a.obj < b.obj;
                         });
        prev_best_ = scored_.front().obj;
        have_best_ = true;

        std::vector<Candidate> next;
        const int elites = std::min(cfg_.elites, int(scored_.size()));
        for (int e = 0; e < elites; ++e)
            next.push_back({scored_[size_t(e)].values, e});
        while (int(next.size()) < cfg_.population) {
            const Scored &pa = tournament();
            const Scored &pb = tournament();
            Candidate child;
            child.chain = int(next.size());
            // Uniform crossover, then per-dimension mutation via the
            // shared SA neighbor step.
            for (size_t d = 0; d < space_.size(); ++d) {
                child.values.push_back(rng_.bernoulli(0.5)
                                           ? pa.values[d]
                                           : pb.values[d]);
            }
            for (size_t d = 0; d < space_.size(); ++d) {
                if (!rng_.bernoulli(cfg_.mutation))
                    continue;
                const ParamDim &dim = space_.dims()[d];
                const double range = dim.hi - dim.lo;
                const double draw = rng_.uniform(-1.0, 1.0);
                double moved = space_.clamp_dim(
                    d, child.values[d] + draw * cfg_.step_frac * range);
                if (dim.integer && moved == child.values[d]) {
                    moved = space_.clamp_dim(
                        d, child.values[d] + (draw < 0 ? -1.0 : 1.0));
                }
                child.values[d] = moved;
            }
            next.push_back(std::move(child));
        }
        generation_ = std::move(next);
        scored_.clear();
        next_ = 0;
    }

    const Scored &
    tournament()
    {
        size_t best = size_t(
            rng_.uniform_int(0, int64_t(scored_.size()) - 1));
        for (int t = 1; t < cfg_.tournament; ++t) {
            const size_t pick = size_t(
                rng_.uniform_int(0, int64_t(scored_.size()) - 1));
            if (scored_[pick].obj < scored_[best].obj)
                best = pick;
        }
        return scored_[best];
    }

    ParamSpace space_;
    OptimizerConfig cfg_;
    Rng rng_;
    std::vector<Candidate> generation_;
    size_t next_ = 0;
    std::vector<Scored> scored_;
    double prev_best_ = 0;
    bool have_best_ = false;
};

} // namespace

StatusOr<std::unique_ptr<Optimizer>>
make_optimizer(const std::string &name, const ParamSpace &space,
               const OptimizerConfig &cfg)
{
    OptimizerConfig normalized = cfg;
    // Normalize the anchor point: full length (midpoints for missing
    // dimensions), everything in-bounds.
    normalized.start.resize(space.size());
    for (size_t i = cfg.start.size(); i < space.size(); ++i) {
        const ParamDim &dim = space.dims()[i];
        normalized.start[i] = (dim.lo + dim.hi) / 2;
    }
    normalized.start = space.clamp(std::move(normalized.start));

    if (normalized.chains < 1 || normalized.population < 2)
        return Status::invalid_argument("optimizer needs chains >= 1 and "
                               "population >= 2");
    if (normalized.init_temp <= 0 || normalized.cooling <= 0 ||
        normalized.cooling > 1 || normalized.step_frac <= 0) {
        return Status::invalid_argument("sa knobs must satisfy init_temp > 0, "
                               "0 < cooling <= 1, step > 0");
    }
    if (normalized.elites < 0 ||
        normalized.elites >= normalized.population ||
        normalized.tournament < 1 || normalized.mutation < 0 ||
        normalized.mutation > 1) {
        return Status::invalid_argument("ga knobs must satisfy 0 <= elites < "
                               "population, tournament >= 1, "
                               "0 <= mutation <= 1");
    }

    if (name == "sa")
        return make_sa_optimizer(space, normalized);
    if (name == "genetic") {
        std::unique_ptr<Optimizer> opt =
            std::make_unique<GeneticOptimizer>(space, normalized);
        return opt;
    }
    return Status::invalid_argument("unknown optimizer: " + name +
                           " (want sa or genetic)");
}

} // namespace tacc::tune
