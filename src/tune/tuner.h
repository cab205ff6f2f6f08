/**
 * @file
 * The policy auto-tuner: search over ParamSpace against a deterministic
 * sweep-backed evaluator.
 *
 * A TuneSpec names the workload mixes and evaluation seeds that define
 * one candidate's score: every (mix, seed) pair is a full scenario run;
 * a candidate's objective is the mean of the scalarized objective over
 * all pairs, and its digest folds the per-run determinism digests in
 * canonical eval order. Candidate evaluations fan out through
 * common/parallel's parallel_for, but results land in indexed slots and the
 * optimizer observes them strictly in propose order — so the best
 * configuration, the trajectory, and every digest are a pure function
 * of (spec, seed, budget) at any worker count.
 *
 * Specs are written in the repo's `key: value` dialect, read by
 * common/kv like the task, deployment and sweep dialects: unknown keys
 * and out-of-range values are errors that name their line, and numbers
 * are strict (whole value, finite, in range):
 *
 *   # search
 *   optimizer: sa            sa | genetic
 *   budget: 40               evaluated candidates (trajectory length)
 *   seed: 1                  search-stream seed (not the workload seed)
 *   params: w_age,w_qos      tuned subset (default: every dimension)
 *   sa_chains: 4             sa_init_temp / sa_cooling / sa_step too
 *   ga_population: 8         ga_elites / ga_tournament / ga_mutation too
 *   # objective (see ObjectiveWeights)
 *   w_mean_jct: 1.0
 *   w_p99_jct: 0.5
 *   w_fairness: 1.0
 *   w_energy: 0.0
 *   w_slo: 1.0
 *   jct_ref_s: 3600
 *   energy_ref_kwh: 100
 *   # evaluation workload
 *   mixes: train-heavy,infer-fault     (see apply_mix)
 *   eval_seeds: 1,2
 *   scheduler: fairshare     base deployment the knobs perturb
 *   placement: topology
 *   preempt_mode: graceful
 *   fault_mode: none         per-spec baseline; mixes may escalate
 *   power_cap_w: 0           > 0 enables power with power_policy
 *   power_policy: admission
 *   jobs / interarrival_s / diurnal / frac_* / racks / nodes_per_rack /
 *   gpus_per_node / oversubscription / max_events / streaming /
 *   stream_window: as in the sweep dialect (driver::apply_scenario_key)
 */
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "core/scenario.h"
#include "tune/objective.h"
#include "tune/optimizer.h"
#include "tune/param_space.h"

namespace tacc::tune {

/** Everything one tuning run needs (see file comment for the dialect). */
struct TuneSpec {
    /** Deployment + workload template each (mix, seed) pair perturbs. */
    core::ScenarioConfig base;
    /** Tuned dimensions (defaults to the full registry). */
    ParamSpace space = ParamSpace::all();
    ObjectiveWeights weights;
    std::string optimizer = "sa";
    OptimizerConfig search;
    /** Workload mixes a candidate is scored on (see apply_mix). */
    std::vector<std::string> mixes = {"mixed"};
    /** Workload seeds crossed with every mix. */
    std::vector<uint64_t> eval_seeds = {1};
    /** Candidates evaluated (= trajectory length). */
    int budget = 40;
};

/**
 * Applies a named workload mix to a scenario (QoS fractions, duration
 * shape, arrival rate, fault escalation). Recognized mixes:
 *  - "mixed":          the spec's base workload, untouched;
 *  - "train-heavy":    mostly batch training, longer jobs;
 *  - "infer-heavy":    interactive/serving dominated, faster arrivals;
 *  - "infer-fault":    infer-heavy under the full fault storm;
 *  - "fault-heavy":    base mix under the full fault storm, more load;
 *  - "deadline-heavy": a third of jobs carry completion deadlines.
 */
Status apply_mix(const std::string &mix, core::ScenarioConfig *config);

/** The recognized mix names, canonical order. */
std::vector<std::string> mix_names();

/** One evaluated candidate, in evaluation (budget) order. */
struct TuneStep {
    int step = 0;  ///< 0-based trajectory index
    int chain = 0; ///< proposing SA chain / GA individual slot
    std::vector<double> values;
    double objective = 0;
    /** SA: Metropolis outcome; GA: improved on previous generation. */
    bool accepted = false;
    /** Objective served from the eval cache (revisited point). */
    bool cache_hit = false;
    /** FNV fold of the per-run digests, canonical eval order. */
    uint64_t digest = 0;
    bool is_best = false; ///< new global best as of this step
};

/** A finished tuning run. */
struct TuneResult {
    /** "mix/sN" labels, canonical eval order. */
    std::vector<std::string> eval_names;

    /** @name Baseline: the spec's unmodified configuration */
    ///@{
    std::vector<double> default_values;
    double default_objective = 0;
    uint64_t default_digest = 0;
    std::vector<double> default_per_eval;
    ///@}

    /** @name Winner (never worse than the default; see optimizer.h) */
    ///@{
    std::vector<double> best_values;
    double best_objective = 0;
    uint64_t best_digest = 0;
    /** Trajectory index that set the record; -1 = default never beaten
     *  strictly (the default is still returned as best_values). */
    int best_step = -1;
    std::vector<double> best_per_eval;
    ///@}

    std::vector<TuneStep> trajectory;
    size_t scenario_runs = 0; ///< simulations actually executed
    size_t cache_hits = 0;    ///< candidates served without running
    /** @name Reporting only — excluded from the deterministic JSON */
    ///@{
    double wall_ms = 0;
    int workers = 0;
    ///@}
};

/** Parses the tune dialect (hard errors carry line numbers). */
StatusOr<TuneSpec> parse_tune_spec(const std::string &text);

/** Reads and parses a spec file. */
StatusOr<TuneSpec> load_tune_spec(const std::string &path);

/**
 * Runs the search to its budget. workers <= 0 uses the hardware
 * count; the result is identical at any worker count.
 */
StatusOr<TuneResult> run_tune(const TuneSpec &spec, int workers);

/**
 * Deterministic JSON of the run (spec echo, baseline, winner, full
 * trajectory). Byte-identical across worker counts and repeat runs —
 * wall-clock and worker count are deliberately absent.
 */
std::string trajectory_to_json(const TuneSpec &spec,
                               const TuneResult &result);

/**
 * The winning deployment rendered as a loadable preset: a header of
 * `#` comments (optimizer, budget, seed, objective vs default, moved
 * parameters) followed by stack_config_to_text() of the tuned stack.
 * parse_stack_config() round-trips it; tcloud `open` and the sweep
 * dialect's `preset:` key load it directly.
 */
std::string best_config_text(const TuneSpec &spec,
                             const TuneResult &result);

} // namespace tacc::tune
