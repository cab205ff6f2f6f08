/**
 * @file
 * Search engines behind the policy auto-tuner.
 *
 * An Optimizer proposes batches of candidate parameter vectors and is
 * told their objectives strictly in propose order — the only contract
 * the tuner honours. Because every RNG draw happens on the proposing /
 * observing thread (never inside an evaluation), search trajectories
 * are a pure function of (spec, seed) no matter how many worker threads
 * evaluate candidates or in which order they finish.
 *
 * Two engines ship behind the interface:
 *
 *  - "sa": simulated annealing with parallel restart chains. Each chain
 *    owns a forked RNG stream; a neighbor move mutates exactly one
 *    dimension by a uniform step scaled to its range, clamped to
 *    bounds. Worse moves pass a Metropolis test at geometrically cooled
 *    temperature (the acceptance draw happens only for worse moves, so
 *    equal-objective plateaus consume no randomness). Chain 0 starts at
 *    the spec's defaults, guaranteeing the search result is never worse
 *    than the shipped configuration; later chains start uniformly at
 *    random.
 *
 *  - "genetic": a small generational GA — elitism, tournament
 *    selection, uniform crossover, per-dimension mutation reusing the
 *    SA neighbor move. Individual 0 of generation 0 is the default
 *    configuration (same never-worse guarantee).
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "tune/param_space.h"

namespace tacc::tune {

/** One proposed parameter vector. */
struct Candidate {
    std::vector<double> values;
    /** Lineage: SA chain index / GA individual slot (trajectory only). */
    int chain = 0;
};

/** Shared search-engine knobs (spec-file keys in parentheses). */
struct OptimizerConfig {
    uint64_t seed = 1;
    /** Starting point for chain/individual 0 (the config defaults). */
    std::vector<double> start;

    /** @name Simulated annealing (optimizer: sa) */
    ///@{
    int chains = 4;              ///< parallel restart chains (sa_chains)
    double init_temp = 0.3;      ///< initial temperature (sa_init_temp)
    double cooling = 0.92;       ///< geometric factor/step (sa_cooling)
    double step_frac = 0.25;     ///< move size as range fraction (sa_step)
    ///@}

    /** @name Genetic variant (optimizer: genetic) */
    ///@{
    int population = 8;          ///< generation size (ga_population)
    int elites = 2;              ///< carried unchanged (ga_elites)
    int tournament = 3;          ///< selection pressure (ga_tournament)
    double mutation = 0.25;      ///< per-dimension mutate prob (ga_mutation)
    ///@}
};

/** Batch-synchronous search engine (see file comment for the contract). */
class Optimizer
{
  public:
    virtual ~Optimizer() = default;

    virtual std::string name() const = 0;

    /**
     * Up to max_batch new candidates (>= 1 guaranteed while the engine
     * has work; an empty batch means the engine is exhausted). All
     * values are already clamped in-bounds.
     */
    virtual std::vector<Candidate> propose(size_t max_batch) = 0;

    /**
     * Reports objectives for the last batch, in propose order (lower is
     * better). Appends one accepted/rejected flag per candidate to
     * *accepted (SA: Metropolis outcome; GA: improved on the previous
     * generation's best).
     */
    virtual void observe(const std::vector<double> &objectives,
                         std::vector<bool> *accepted) = 0;
};

/**
 * Factory: "sa" or "genetic". The space is copied; cfg.start is clamped
 * (and padded with dimension midpoints if short).
 */
StatusOr<std::unique_ptr<Optimizer>> make_optimizer(
    const std::string &name, const ParamSpace &space,
    const OptimizerConfig &cfg);

/**
 * The shared neighbor move: mutates exactly one uniformly chosen
 * dimension of `values` by uniform(-1,1) * step_frac * range, clamped;
 * integer dimensions that round back onto the current value are nudged
 * one step in the draw's direction so a move never silently no-ops
 * (except when pinned at a bound).
 */
std::vector<double> neighbor_move(const ParamSpace &space,
                                  const std::vector<double> &values,
                                  double step_frac, Rng &rng);

} // namespace tacc::tune
