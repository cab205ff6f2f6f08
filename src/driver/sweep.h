/**
 * @file
 * Sweep specification: the experiment grid behind every policy-comparison
 * table.
 *
 * A SweepSpec is a base scenario (cluster shape + workload shape) plus
 * nine axes — estimator mode x mispredict bias, serve mode x burst,
 * power cap x policy, fault mode, scheduler, placement policy,
 * preemption-cost mode, load multiplier, seed — whose cross product
 * expands into independent named scenario runs. Expansion order is
 * canonical (axes iterate in the order above, values in listed order),
 * so run indices, digest files, and JSON summaries are stable for a
 * fixed spec. The estimator axis is outermost and every "limit" entry
 * collapses into one unsuffixed prediction-off point (regardless of
 * the bias list); next the serve axis, where every "off" entry
 * collapses into one unsuffixed serving-off point (regardless of the
 * burst list); next the power axis, where every cap <= 0 collapses
 * into one unsuffixed power-off point (regardless of the policy list);
 * then the fault-mode axis with "none" unsuffixed — so adding
 * estimator modes, serve modes, power caps, or fault modes to a spec
 * appends scenarios without renaming (or reordering) the existing
 * grid.
 *
 * Specs are written in the repo's `key: value` dialect, read by
 * common/kv like the task, deployment and tune dialects: every error
 * names its line, and numbers are strict (whole value, finite, in
 * range). Unknown keys are errors.
 *
 *   # axes (comma-separated lists)
 *   estimator_modes: limit,ema,regress   prediction authority axis
 *   mispredict_bias: 0.5,1,2 prediction multipliers (mode != limit only)
 *   schedulers: fairshare,fifo-skip,backfill-easy
 *   placements: topology,pack
 *   preempt_modes: graceful
 *   loads: 1.0,1.4
 *   seeds: 1,2
 *   fault_modes: none,storm
 *   power_caps: 0,80000      cluster cap in watts; 0 = power off
 *   power_policies: admission,dvfs
 *   serve_modes: off,robust,baseline   request-serving plane axis
 *   bursts: 1,3              arrival burst multipliers (serve on only)
 *   serve_rate_hz: 10        base request rate of the serving plane
 *   serve_horizon_s: 1200    open-loop arrival horizon (sim seconds)
 *   # base scenario knobs (all optional)
 *   jobs: 40                 trace length
 *   interarrival_s: 90       mean interarrival at load 1.0
 *   diurnal: true            day/night arrival modulation
 *   frac_interactive: 0.25   QoS mix
 *   frac_best_effort: 0.15
 *   frac_deadline: 0.0
 *   frac_elastic: 0.0
 *   racks: 4
 *   nodes_per_rack: 8
 *   gpus_per_node: 8
 *   oversubscription: 4.0
 *   node_mtbf_hours: 0      per-segment transient-fault MTBF
 *   max_events: 100000000
 *   streaming: false         million-job retention (see ScenarioConfig)
 *   stream_window: 4096      arrival lookahead in streaming mode
 *   preset: FILE             start base.stack from a deployment-dialect
 *                            preset (e.g. a tacc_tune winner); later
 *                            keys and the axes still override it.
 *                            Relative paths resolve against the spec
 *                            file's directory.
 */
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/kv.h"
#include "common/status.h"
#include "core/scenario.h"

namespace tacc::driver {

/** The experiment grid; defaults describe a single reference run. */
struct SweepSpec {
    /** Template every grid point starts from. */
    core::ScenarioConfig base;

    /** @name Axes (cross product; estimator outermost, then serve,
     *  then power, then fault_modes, then in this nesting order) */
    ///@{
    /** Prediction-authority modes ("limit"/"ema"/"regress"; see
     *  apply_estimator_mode). All "limit" entries collapse to one
     *  unsuffixed prediction-off point. */
    std::vector<std::string> estimator_modes = {"limit"};
    /** Mispredict-bias multipliers crossed with every estimator mode
     *  != "limit" (applied to predictions only; 1 = honest model). */
    std::vector<double> mispredict_bias = {1.0};
    /** Request-serving modes ("off"/"robust"/"baseline"; see
     *  apply_serve_mode). All off entries collapse to one unsuffixed
     *  serving-off point. */
    std::vector<std::string> serve_modes = {"off"};
    /** Burst multipliers crossed with every serve mode != "off". */
    std::vector<double> bursts = {1.0};
    /** Cluster power caps in watts; <= 0 = power management off. All
     *  off entries collapse to one unsuffixed power-off point. */
    std::vector<double> power_caps = {0.0};
    /** Cap policies crossed with every cap > 0 (see apply_power_mode). */
    std::vector<std::string> power_policies = {"admission"};
    /** See apply_fault_mode for the recognized modes. */
    std::vector<std::string> fault_modes = {"none"};
    std::vector<std::string> schedulers = {"fairshare"};
    std::vector<std::string> placements = {"topology"};
    /** See apply_preempt_mode for the recognized modes. */
    std::vector<std::string> preempt_modes = {"graceful"};
    /** Arrival-rate multipliers: interarrival = base / load. */
    std::vector<double> loads = {1.0};
    /** Seeds both the trace generator and the stack. */
    std::vector<uint64_t> seeds = {1};
    ///@}

    /** @name Gated axis pairs
     *  Expanded points in listed order after the off collapse (see the
     *  file comment): the estimator off point is ("", 1), the serving
     *  off point ("", 1), the power off point (0, ""). */
    ///@{
    std::vector<std::pair<std::string, double>> predict_points() const;
    std::vector<std::pair<std::string, double>> serve_points() const;
    std::vector<std::pair<double, std::string>> power_points() const;
    size_t predict_point_count() const { return predict_points().size(); }
    size_t serve_point_count() const { return serve_points().size(); }
    size_t power_point_count() const { return power_points().size(); }
    ///@}

    size_t
    grid_size() const
    {
        return predict_point_count() * serve_point_count() *
               power_point_count() * fault_modes.size() *
               schedulers.size() * placements.size() *
               preempt_modes.size() * loads.size() * seeds.size();
    }
};

/** One grid point: a canonical name plus the concrete scenario. */
struct SweepScenario {
    /** "<sched>/<placement>/<mode>/x<load>/s<seed>[+<fault-mode>]
     *  [+<cap>kW-<policy>][+serve-<mode>[-b<burst>]]
     *  [+est-<mode>[-x<bias>]]" (no suffix for fault mode "none", the
     *  power-off point, the serving-off point, burst 1, the
     *  prediction-off point, or bias 1). */
    std::string name;
    core::ScenarioConfig config;
};

/**
 * Applies a preemption-cost mode to a stack config. Recognized modes
 * (the F4-style preemption axis: how expensive is it to kick a job?):
 *  - "graceful":   library defaults — 30 s checkpoint-restore on
 *                  restart, no periodic checkpoints;
 *  - "free":       zero restart overhead (preemption is costless);
 *  - "costly":     120 s restart overhead (large checkpoint restore);
 *  - "checkpoint": periodic 30-min checkpoints with the default 5 s
 *                  write cost (crash rollback bounded, restarts 30 s).
 */
Status apply_preempt_mode(const std::string &mode,
                          core::StackConfig *stack);

/**
 * Applies a fault mode to a stack config (the T15-style robustness
 * axis: how hostile is the hardware?):
 *  - "none":     no injected faults (the default; scenario names stay
 *                unsuffixed so existing grids are unchanged);
 *  - "segfault": per-segment transient faults only (exec-layer MTBF
 *                120 h/node, short requeue backoff), no node outages;
 *  - "storm":    the full fault-domain storm — independent node
 *                crashes, degradations, correlated rack and PDU
 *                outages with the self-healing repair pipeline.
 */
Status apply_fault_mode(const std::string &mode, core::StackConfig *stack);

/**
 * Applies one serve grid point to a stack config (the T20 axis: is a
 * request-serving plane sharing the cluster, and how hardened is it?).
 *  - "off":      no serving plane (the default; scenario names stay
 *                unsuffixed so existing grids are byte-identical);
 *  - "robust":   the full overload-control suite — SLO-aware admission,
 *                per-tenant retry budgets, circuit breakers, tiered
 *                degradation, decorrelated retry jitter;
 *  - "baseline": the plane with every protection off (unbounded-ish
 *                queues, aggressive deterministic retries, no
 *                admission/budgets/breakers) — the metastable-collapse
 *                foil.
 * burst > 1 turns on a mid-horizon arrival burst at that multiplier.
 */
Status apply_serve_mode(const std::string &mode, double burst,
                        core::StackConfig *stack);

/**
 * Applies one power grid point to a stack config (the T16 axis: how
 * tight is the facility budget, and how is it enforced?). cap_w <= 0
 * leaves power management off entirely; otherwise enables it with the
 * given cluster cap and policy ("admission" or "dvfs").
 */
Status apply_power_mode(double cap_w, const std::string &policy,
                        core::StackConfig *stack);

/**
 * Applies one estimator grid point to a stack config (the T21 axis:
 * which prediction authority does scheduling condition on, and how
 * wrong is it allowed to be?).
 *  - "limit":   no prediction subsystem (the default; scenario names
 *               stay unsuffixed so existing grids are byte-identical);
 *  - "ema":     the online hub in EMA-table mode (T8-style);
 *  - "regress": the decayed-regression model with EMA + limit fallback
 *               and error-quantile-driven safety.
 * bias != 1 applies a systematic multiplier to predictions only (the
 * mispredict-robustness ablation); observations stay truthful.
 */
Status apply_estimator_mode(const std::string &mode, double bias,
                            core::StackConfig *stack);

/**
 * Applies one base-scenario key shared by the sweep and tune dialects:
 * jobs, interarrival_s, diurnal, frac_interactive / frac_best_effort /
 * frac_deadline / frac_elastic, racks, nodes_per_rack, gpus_per_node,
 * oversubscription, max_events, streaming, stream_window. Any other key
 * is an "unknown key" error, so a dialect hands this its leftovers.
 */
Status apply_scenario_key(const KvEntry &e, core::ScenarioConfig *base);

/** Expands the grid into runnable scenarios in canonical order. */
std::vector<SweepScenario> expand_sweep(const SweepSpec &spec);

/** Parses the spec dialect; axes and scheduler names are validated.
 *  @param spec_dir directory relative `preset:` paths resolve against
 *         ("" = the working directory). */
StatusOr<SweepSpec> parse_sweep_spec(const std::string &text,
                                     const std::string &spec_dir = "");

/** Reads and parses a spec file. */
StatusOr<SweepSpec> load_sweep_spec(const std::string &path);

} // namespace tacc::driver
