#include "driver/sweep.h"

#include <fstream>
#include <sstream>

#include "common/kv.h"
#include "core/config_io.h"
#include "predict/config.h"
#include "sched/placement.h"
#include "sched/schedulers.h"

namespace tacc::driver {

namespace {

/** Compact load rendering: x1, x1.4, x0.75 (no trailing zeros). */
std::string
load_tag(double load)
{
    std::string s = strfmt("%g", load);
    return "x" + s;
}

/**
 * The one rule behind the three gated axis pairs (estimator x bias,
 * serve x burst, power cap x policy): points in listed order, every
 * entry of `axis` with is_off() collapsing into the single unsuffixed
 * `off` point at its first position, every other entry crossed with
 * `gated`. Off entries ignore the gated list, so a plain spec's grid
 * survives verbatim as the feature's axis grows.
 */
template <class A, class B, class IsOff>
std::vector<std::pair<A, B>>
gated_points(const std::vector<A> &axis, const std::vector<B> &gated,
             IsOff is_off, std::pair<A, B> off)
{
    std::vector<std::pair<A, B>> points;
    bool have_off = false;
    for (const A &a : axis) {
        if (!is_off(a)) {
            for (const B &b : gated)
                points.emplace_back(a, b);
        } else if (!have_off) {
            points.push_back(off);
            have_off = true;
        }
    }
    return points;
}

/** Trace and cluster sizes: positive, capped well below int overflow. */
bool
positive_count(int v)
{
    return v > 0 && v <= 1'000'000'000;
}

/** Reads a list whose every item must pass check (a Status naming the
 *  bad item, e.g. "unknown scheduler: x"). */
Status
read_checked(const KvEntry &e, std::vector<std::string> *out,
             Status (*check)(const std::string &))
{
    std::vector<std::string> list;
    if (auto s = e.read_list(&list); !s.is_ok())
        return s;
    for (const auto &item : list) {
        if (auto s = check(item); !s.is_ok())
            return s;
    }
    *out = std::move(list);
    return Status::ok();
}

/** One sweep-only key; everything else goes to apply_scenario_key. */
Status
apply_sweep_key(const KvEntry &e, const std::string &spec_dir,
                SweepSpec &spec)
{
    const std::string &key = e.key;
    if (key == "preset") {
        // A deployment-dialect file (e.g. a tacc_tune winner) becomes
        // the base stack; keys after this line and the axes still
        // override it.
        std::string path = e.value;
        if (!spec_dir.empty() && !path.empty() && path[0] != '/')
            path = spec_dir + "/" + path;
        std::ifstream preset(path);
        if (!preset)
            return Status::not_found("cannot read preset: " + path);
        std::ostringstream preset_text;
        preset_text << preset.rdbuf();
        auto stack = core::parse_stack_config(preset_text.str());
        if (!stack.is_ok()) {
            return Status::invalid_argument(
                "preset " + path + ": " + stack.status().message());
        }
        spec.base.stack = std::move(stack).value();
        spec.base.stack.emit_monitor_logs = false;
        return Status::ok();
    }
    if (key == "schedulers") {
        return read_checked(e, &spec.schedulers, [](const std::string &n) {
            return sched::make_scheduler(n, {})
                       ? Status::ok()
                       : Status::invalid_argument("unknown scheduler: " + n);
        });
    }
    if (key == "placements") {
        return read_checked(e, &spec.placements, [](const std::string &n) {
            return sched::make_placement_policy(n)
                       ? Status::ok()
                       : Status::invalid_argument("unknown placement: " + n);
        });
    }
    if (key == "preempt_modes") {
        return read_checked(e, &spec.preempt_modes, [](const std::string &m) {
            core::StackConfig scratch;
            return apply_preempt_mode(m, &scratch);
        });
    }
    if (key == "fault_modes") {
        return read_checked(e, &spec.fault_modes, [](const std::string &m) {
            core::StackConfig scratch;
            return apply_fault_mode(m, &scratch);
        });
    }
    if (key == "power_policies") {
        return read_checked(e, &spec.power_policies,
                            [](const std::string &p) {
                                core::StackConfig scratch;
                                return apply_power_mode(1.0, p, &scratch);
                            });
    }
    if (key == "estimator_modes") {
        return read_checked(e, &spec.estimator_modes,
                            [](const std::string &m) {
                                core::StackConfig scratch;
                                return apply_estimator_mode(m, 1.0, &scratch);
                            });
    }
    if (key == "serve_modes") {
        return read_checked(e, &spec.serve_modes, [](const std::string &m) {
            core::StackConfig scratch;
            return apply_serve_mode(m, 1.0, &scratch);
        });
    }
    if (key == "power_caps") {
        return e.read_list(&spec.power_caps,
                           [](double v) { return v >= 0 && v <= 1e9; });
    }
    if (key == "mispredict_bias") {
        return e.read_list(&spec.mispredict_bias,
                           [](double v) { return v > 0 && v <= 100; });
    }
    if (key == "bursts") {
        return e.read_list(&spec.bursts,
                           [](double v) { return v >= 1 && v <= 100; });
    }
    if (key == "serve_rate_hz") {
        return e.read(&spec.base.stack.serve.request_rate_hz,
                      [](double v) { return v > 0 && v <= 1e6; });
    }
    if (key == "serve_horizon_s")
        return e.read(&spec.base.stack.serve.horizon_s, positive);
    if (key == "loads") {
        return e.read_list(&spec.loads,
                           [](double v) { return v > 0 && v <= 100; });
    }
    if (key == "seeds")
        return e.read_list(&spec.seeds);
    if (key == "node_mtbf_hours") {
        return e.read(&spec.base.stack.exec.failure.node_mtbf_hours,
                      non_negative);
    }
    return apply_scenario_key(e, &spec.base);
}

} // namespace

Status
apply_preempt_mode(const std::string &mode, core::StackConfig *stack)
{
    if (mode == "graceful") {
        stack->exec.restart_overhead_s = 30.0;
        stack->exec.checkpoint_interval_s = 0.0;
    } else if (mode == "free") {
        stack->exec.restart_overhead_s = 0.0;
        stack->exec.checkpoint_cost_s = 0.0;
        stack->exec.checkpoint_interval_s = 0.0;
    } else if (mode == "costly") {
        stack->exec.restart_overhead_s = 120.0;
        stack->exec.checkpoint_interval_s = 0.0;
    } else if (mode == "checkpoint") {
        stack->exec.restart_overhead_s = 30.0;
        stack->exec.checkpoint_interval_s = 1800.0;
    } else {
        return Status::invalid_argument("unknown preempt mode: " + mode);
    }
    return Status::ok();
}

Status
apply_power_mode(double cap_w, const std::string &policy,
                 core::StackConfig *stack)
{
    if (cap_w <= 0)
        return Status::ok(); // power off: the byte-identical baseline
    if (policy != "admission" && policy != "dvfs")
        return Status::invalid_argument("unknown power policy: " + policy);
    stack->power.enabled = true;
    stack->power.policy = policy;
    stack->power.cluster_cap_w = cap_w;
    return Status::ok();
}

Status
apply_fault_mode(const std::string &mode, core::StackConfig *stack)
{
    if (mode == "none")
        return Status::ok();
    if (mode == "segfault") {
        stack->exec.failure.node_mtbf_hours = 120.0;
        stack->exec.failure.requeue_backoff_base_s = 5.0;
        return Status::ok();
    }
    if (mode == "storm" || mode == "storm-jitter") {
        stack->exec.failure.node_mtbf_hours = 500.0;
        stack->exec.failure.requeue_backoff_base_s = 5.0;
        stack->faults.enabled = true;
        stack->faults.node_crash_mtbf_hours = 240.0;
        stack->faults.node_degrade_mtbf_hours = 360.0;
        stack->faults.rack_outage_mtbf_hours = 1440.0;
        stack->faults.pdu_outage_mtbf_hours = 2880.0;
        // "-jitter": the same storm with decorrelated requeue backoff
        // (a separate mode so plain "storm" goldens stay byte-identical
        // while the jittered grid exercises the per-job streams).
        stack->exec.failure.requeue_jitter = (mode == "storm-jitter");
        return Status::ok();
    }
    return Status::invalid_argument("unknown fault mode: " + mode);
}

Status
apply_serve_mode(const std::string &mode, double burst,
                 core::StackConfig *stack)
{
    if (mode == "off")
        return Status::ok(); // serving off: the byte-identical baseline
    if (mode != "robust" && mode != "baseline")
        return Status::invalid_argument("unknown serve mode: " + mode);
    auto &serve = stack->serve;
    serve.enabled = true;
    serve.burst_factor = burst;
    // A burst with no configured window defaults to the middle of the
    // horizon: [h/3, h/3 + h/4).
    if (burst > 1.0 && serve.burst_duration_s <= 0) {
        serve.burst_start_s = serve.horizon_s / 3.0;
        serve.burst_duration_s = serve.horizon_s / 4.0;
    }
    if (mode == "robust") {
        serve.admission = true;
        serve.retry_budget = true;
        serve.breakers = true;
        serve.degrade = true;
        serve.retry_jitter = true;
    } else {
        // The metastable-collapse foil: every protection off, hungry
        // deterministic retries, deep queues.
        serve.admission = false;
        serve.retry_budget = false;
        serve.breakers = false;
        serve.degrade = false;
        serve.retry_jitter = false;
        serve.max_retries = 6;
        serve.hard_queue_cap = 4096;
    }
    return Status::ok();
}

Status
apply_estimator_mode(const std::string &mode, double bias,
                     core::StackConfig *stack)
{
    if (mode == "limit")
        return Status::ok(); // prediction off: the byte-identical baseline
    auto parsed = predict::parse_estimator_mode(mode);
    if (!parsed.is_ok())
        return parsed.status();
    stack->predict.enabled = true;
    stack->predict.mode = parsed.value();
    stack->predict.bias = bias;
    return Status::ok();
}

std::vector<std::pair<std::string, double>>
SweepSpec::predict_points() const
{
    return gated_points(
        estimator_modes, mispredict_bias,
        [](const std::string &mode) { return mode == "limit"; },
        std::pair<std::string, double>("", 1.0));
}

std::vector<std::pair<std::string, double>>
SweepSpec::serve_points() const
{
    return gated_points(
        serve_modes, bursts,
        [](const std::string &mode) { return mode == "off"; },
        std::pair<std::string, double>("", 1.0));
}

std::vector<std::pair<double, std::string>>
SweepSpec::power_points() const
{
    return gated_points(power_caps, power_policies,
                        [](double cap) { return cap <= 0; },
                        std::pair<double, std::string>(0.0, ""));
}

std::vector<SweepScenario>
expand_sweep(const SweepSpec &spec)
{
    std::vector<SweepScenario> out;
    out.reserve(spec.grid_size());
    // Estimator is the outermost axis, then serve, then power, then
    // fault_modes, so "limit,<modes>", "off,<modes>", "0,<caps>" and
    // "none,<more>" specs keep the plain grid as an unchanged prefix of
    // the expansion.
    for (const auto &[est_mode, est_bias] : spec.predict_points()) {
    for (const auto &[serve_mode, burst] : spec.serve_points()) {
    for (const auto &[cap_w, policy] : spec.power_points()) {
        for (const auto &fault_mode : spec.fault_modes) {
            for (const auto &scheduler : spec.schedulers) {
                for (const auto &placement : spec.placements) {
                    for (const auto &mode : spec.preempt_modes) {
                        for (double load : spec.loads) {
                            for (uint64_t seed : spec.seeds) {
                                SweepScenario sc;
                                sc.config = spec.base;
                                sc.config.stack.scheduler = scheduler;
                                sc.config.stack.placement = placement;
                                // Validated at parse time; an invalid
                                // mode in a hand-built spec surfaces
                                // when the run fails.
                                (void)apply_preempt_mode(
                                    mode, &sc.config.stack);
                                (void)apply_fault_mode(
                                    fault_mode, &sc.config.stack);
                                (void)apply_power_mode(
                                    cap_w, policy, &sc.config.stack);
                                if (!serve_mode.empty()) {
                                    (void)apply_serve_mode(
                                        serve_mode, burst,
                                        &sc.config.stack);
                                }
                                if (!est_mode.empty()) {
                                    (void)apply_estimator_mode(
                                        est_mode, est_bias,
                                        &sc.config.stack);
                                }
                                sc.config.trace.mean_interarrival_s =
                                    spec.base.trace.mean_interarrival_s /
                                    load;
                                sc.config.stack.seed = seed;
                                sc.config.trace.seed = seed;
                                sc.name = scheduler + "/" + placement +
                                          "/" + mode + "/" +
                                          load_tag(load) + "/s" +
                                          std::to_string(seed);
                                if (fault_mode != "none")
                                    sc.name += "+" + fault_mode;
                                if (cap_w > 0) {
                                    sc.name += strfmt("+%gkW-%s",
                                                      cap_w / 1000.0,
                                                      policy.c_str());
                                }
                                if (!serve_mode.empty()) {
                                    sc.name +=
                                        "+serve-" + serve_mode;
                                    if (burst != 1.0) {
                                        sc.name +=
                                            strfmt("-b%g", burst);
                                    }
                                }
                                if (!est_mode.empty()) {
                                    sc.name += "+est-" + est_mode;
                                    if (est_bias != 1.0) {
                                        sc.name +=
                                            strfmt("-x%g", est_bias);
                                    }
                                }
                                out.push_back(std::move(sc));
                            }
                        }
                    }
                }
            }
        }
    }
    }
    }
    return out;
}

Status
apply_scenario_key(const KvEntry &e, core::ScenarioConfig *base)
{
    const std::string &key = e.key;
    workload::TraceConfig &trace = base->trace;
    cluster::TopologyConfig &topo = base->stack.cluster.topology;
    if (key == "jobs")
        return e.read(&trace.num_jobs, positive_count);
    if (key == "interarrival_s")
        return e.read(&trace.mean_interarrival_s, positive);
    if (key == "diurnal")
        return e.read(&trace.diurnal);
    if (key == "frac_interactive")
        return e.read(&trace.frac_interactive, fraction);
    if (key == "frac_best_effort")
        return e.read(&trace.frac_best_effort, fraction);
    if (key == "frac_deadline")
        return e.read(&trace.frac_deadline, fraction);
    if (key == "frac_elastic")
        return e.read(&trace.frac_elastic, fraction);
    if (key == "racks")
        return e.read(&topo.racks, positive_count);
    if (key == "nodes_per_rack")
        return e.read(&topo.nodes_per_rack, positive_count);
    if (key == "gpus_per_node")
        return e.read(&base->stack.cluster.node.gpu_count, positive_count);
    if (key == "oversubscription")
        return e.read(&topo.oversubscription, at_least_one);
    if (key == "max_events")
        return e.read(&base->max_events, positive);
    if (key == "streaming")
        return e.read(&base->streaming);
    if (key == "stream_window")
        return e.read(&base->stream_window, positive);
    return Status::invalid_argument("unknown key: " + key);
}

StatusOr<SweepSpec>
parse_sweep_spec(const std::string &text, const std::string &spec_dir)
{
    SweepSpec spec;
    // Sweeps never want per-node monitor log lines.
    spec.base.stack.emit_monitor_logs = false;
    if (auto s = read_kv(text, [&](const KvEntry &e) {
            return apply_sweep_key(e, spec_dir, spec);
        });
        !s.is_ok())
        return s;
    return spec;
}

StatusOr<SweepSpec>
load_sweep_spec(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::not_found("cannot read sweep spec: " + path);
    std::ostringstream text;
    text << in.rdbuf();
    const size_t slash = path.rfind('/');
    return parse_sweep_spec(text.str(), slash == std::string::npos
                                            ? ""
                                            : path.substr(0, slash));
}

} // namespace tacc::driver
