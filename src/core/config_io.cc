#include "core/config_io.h"

#include <sstream>

#include "common/kv.h"
#include "predict/config.h"
#include "sched/placement.h"
#include "sched/schedulers.h"

namespace tacc::core {

namespace {

/** Parses "model,tflops,memory_gb" starting at parts[first]. */
bool
parse_gpu(const std::vector<std::string> &parts, size_t first,
          cluster::GpuSpec *gpu)
{
    gpu->model = parts[first];
    return parse_double(parts[first + 1], &gpu->tflops) &&
           parse_double(parts[first + 2], &gpu->memory_gb);
}

/**
 * Applies one entry to the config. Unknown keys and out-of-range values
 * are hard errors — a tune-emitted preset that rots (renamed knob, bad
 * bound) must fail loudly, never silently fall back to defaults.
 */
Status
apply_stack_key(const KvEntry &e, StackConfig &config)
{
    const std::string &key = e.key;
    auto &topo = config.cluster.topology;
    auto &opts = config.sched_opts;
    auto &exec = config.exec;
    auto &power = config.power;
    auto &predict = config.predict;
    double dv = 0;
    if (key == "cluster")
        return e.read(&config.cluster.name);
    if (key == "racks")
        return e.read(&topo.racks, positive);
    if (key == "nodes_per_rack")
        return e.read(&topo.nodes_per_rack, positive);
    if (key == "gpus_per_node")
        return e.read(&config.cluster.node.gpu_count, positive);
    if (key == "gpu") {
        const auto parts = e.items();
        cluster::GpuSpec gpu;
        if (parts.size() != 3 || !parse_gpu(parts, 0, &gpu))
            return e.bad();
        config.cluster.node.gpu = gpu;
        return Status::ok();
    }
    if (key == "rack_override") {
        const auto parts = e.items();
        int rack = -1;
        cluster::NodeSpec spec = config.cluster.node;
        if (parts.size() != 5 || !parse_int(parts[0], &rack) || rack < 0 ||
            !parse_gpu(parts, 1, &spec.gpu) ||
            !parse_int(parts[4], &spec.gpu_count) || spec.gpu_count <= 0)
            return e.bad();
        config.cluster.rack_node_overrides[rack] = spec;
        return Status::ok();
    }
    if (key == "oversubscription")
        return e.read(&topo.oversubscription, at_least_one);
    if (key == "nic_gbps" || key == "nvlink_gbps") {
        if (auto s = e.read(&dv, positive); !s.is_ok())
            return s;
        if (key == "nic_gbps")
            topo.nic_gbps = config.cluster.node.nic_gbps = dv;
        else
            topo.nvlink_gbps = config.cluster.node.nvlink_gbps = dv;
        return Status::ok();
    }
    if (key == "scheduler") {
        if (!sched::make_scheduler(e.value))
            return Status::invalid_argument("unknown scheduler: " + e.value);
        config.scheduler = e.value;
        return Status::ok();
    }
    if (key == "placement") {
        if (!sched::make_placement_policy(e.value))
            return Status::invalid_argument("unknown placement: " + e.value);
        config.placement = e.value;
        return Status::ok();
    }
    if (key == "w_age")
        return e.read(&opts.w_age, non_negative);
    if (key == "w_fairshare")
        return e.read(&opts.w_fairshare, non_negative);
    if (key == "w_qos")
        return e.read(&opts.w_qos, non_negative);
    if (key == "w_size")
        return e.read(&opts.w_size, non_negative);
    if (key == "backfill_depth")
        return e.read(&opts.backfill_depth, non_negative);
    if (key == "gang_quantum_s") {
        if (auto s = e.read(&dv, positive); !s.is_ok())
            return s;
        opts.gang_quantum = Duration::from_seconds(dv);
        return Status::ok();
    }
    if (key == "las_threshold_gpu_s")
        return e.read(&opts.las_queue_threshold_gpu_s, positive);
    if (key == "preempt_cost_gpu_s")
        return e.read(&opts.preempt_cost_threshold_gpu_s, non_negative);
    if (key == "usage_half_life_h") {
        if (auto s = e.read(&dv, positive); !s.is_ok())
            return s;
        config.usage_half_life = Duration::from_seconds(dv * 3600.0);
        return Status::ok();
    }
    if (key == "quota") {
        const auto parts = e.items();
        int cap = 0;
        if (parts.size() != 2 || !parse_int(parts[1], &cap))
            return e.bad();
        config.group_quotas[parts[0]] = cap;
        return Status::ok();
    }
    if (key == "default_quota")
        return e.read(&config.default_group_quota);
    if (key == "avoid_gpu_mixing")
        return e.read(&config.avoid_gpu_mixing);
    if (key == "rdma")
        return e.read(&exec.rdma_available);
    if (key == "innetwork")
        return e.read(&exec.innetwork_available);
    if (key == "failsafe")
        return e.read(&exec.failure.failsafe_switching);
    if (key == "spine_contention")
        return e.read(&exec.model_spine_contention);
    if (key == "mtbf_hours")
        return e.read(&exec.failure.node_mtbf_hours, non_negative);
    if (key == "persistent_failure_prob")
        return e.read(&exec.failure.persistent_prob, fraction);
    if (key == "checkpoint_interval_s")
        return e.read(&exec.checkpoint_interval_s, non_negative);
    if (key == "checkpoint_cost_s")
        return e.read(&exec.checkpoint_cost_s, non_negative);
    if (key == "restart_overhead_s")
        return e.read(&exec.restart_overhead_s, non_negative);
    if (key == "power")
        return e.read(&power.enabled);
    if (key == "power_policy") {
        if (e.value != "admission" && e.value != "dvfs")
            return e.bad();
        power.policy = e.value;
        return Status::ok();
    }
    if (key == "power_cluster_cap_w")
        return e.read(&power.cluster_cap_w, non_negative);
    if (key == "power_rack_cap_w")
        return e.read(&power.rack_cap_w, non_negative);
    if (key == "power_pdu_cap_w")
        return e.read(&power.pdu_cap_w, non_negative);
    if (key == "power_racks_per_pdu")
        return e.read(&power.racks_per_pdu, positive);
    if (key == "power_host_idle_w")
        return e.read(&power.host_idle_w, non_negative);
    if (key == "power_gpu_w") {
        // "idle,active" for the default GPU, or "model,idle,active".
        const auto parts = e.items();
        const size_t first = parts.size() == 3 ? 1 : 0;
        power::GpuPowerSpec spec;
        if ((parts.size() != 2 && parts.size() != 3) ||
            !parse_double(parts[first], &spec.idle_w) ||
            !parse_double(parts[first + 1], &spec.active_w))
            return e.bad();
        if (first)
            power.gpu_power[parts[0]] = spec;
        else
            power.default_gpu = spec;
        return Status::ok();
    }
    if (key == "power_dvfs_exponent")
        return e.read(&power.dvfs_exponent, positive);
    if (key == "power_min_clock")
        return e.read(&power.min_clock, positive_fraction);
    if (key == "predict")
        return e.read(&predict.enabled);
    if (key == "predict_mode") {
        auto mode = predict::parse_estimator_mode(e.value);
        if (mode.is_ok())
            predict.mode = mode.value();
        return mode.status();
    }
    if (key == "predict_decay") {
        return e.read(&predict.decay,
                      [](double v) { return v >= 0 && v < 1; });
    }
    if (key == "predict_sample_floor")
        return e.read(&predict.sample_floor, [](int v) { return v >= 1; });
    if (key == "predict_safety_min")
        return e.read(&predict.safety_min, at_least_one);
    if (key == "predict_safety_max")
        return e.read(&predict.safety_max, at_least_one);
    if (key == "predict_bias")
        return e.read(&predict.bias, positive);
    if (key == "predict_forecast_alpha")
        return e.read(&predict.forecast_alpha, positive_fraction);
    if (key == "predict_forecast_beta")
        return e.read(&predict.forecast_beta, fraction);
    if (key == "seed")
        return e.read(&config.seed);
    return Status::invalid_argument("unknown key: " + key);
}

} // namespace

StatusOr<StackConfig>
parse_stack_config(const std::string &text)
{
    StackConfig config;
    if (auto s = read_kv(text, [&config](const KvEntry &e) {
            return apply_stack_key(e, config);
        });
        !s.is_ok())
        return s;
    return config;
}

std::string
stack_config_to_text(const StackConfig &config)
{
    std::ostringstream os;
    os << "cluster: " << config.cluster.name << '\n';
    os << "racks: " << config.cluster.topology.racks << '\n';
    os << "nodes_per_rack: " << config.cluster.topology.nodes_per_rack
       << '\n';
    os << "gpus_per_node: " << config.cluster.node.gpu_count << '\n';
    os << strfmt("gpu: %s,%g,%g\n", config.cluster.node.gpu.model.c_str(),
                 config.cluster.node.gpu.tflops,
                 config.cluster.node.gpu.memory_gb);
    for (const auto &[rack, spec] : config.cluster.rack_node_overrides) {
        os << strfmt("rack_override: %d,%s,%g,%g,%d\n", rack,
                     spec.gpu.model.c_str(), spec.gpu.tflops,
                     spec.gpu.memory_gb, spec.gpu_count);
    }
    os << strfmt("oversubscription: %g\n",
                 config.cluster.topology.oversubscription);
    os << strfmt("nic_gbps: %g\n", config.cluster.topology.nic_gbps);
    os << strfmt("nvlink_gbps: %g\n",
                 config.cluster.topology.nvlink_gbps);
    os << "scheduler: " << config.scheduler << '\n';
    os << "placement: " << config.placement << '\n';
    // Scheduler tunables: the auto-tuner's search dimensions, so a
    // rendered preset carries every knob a search could have moved.
    os << strfmt("w_age: %g\n", config.sched_opts.w_age);
    os << strfmt("w_fairshare: %g\n", config.sched_opts.w_fairshare);
    os << strfmt("w_qos: %g\n", config.sched_opts.w_qos);
    os << strfmt("w_size: %g\n", config.sched_opts.w_size);
    os << "backfill_depth: " << config.sched_opts.backfill_depth << '\n';
    os << strfmt("gang_quantum_s: %g\n",
                 config.sched_opts.gang_quantum.to_seconds());
    os << strfmt("las_threshold_gpu_s: %g\n",
                 config.sched_opts.las_queue_threshold_gpu_s);
    os << strfmt("preempt_cost_gpu_s: %g\n",
                 config.sched_opts.preempt_cost_threshold_gpu_s);
    os << strfmt("usage_half_life_h: %g\n",
                 config.usage_half_life.to_seconds() / 3600.0);
    for (const auto &[group, cap] : config.group_quotas)
        os << "quota: " << group << ',' << cap << '\n';
    os << "default_quota: " << config.default_group_quota << '\n';
    os << "avoid_gpu_mixing: "
       << (config.avoid_gpu_mixing ? "true" : "false") << '\n';
    os << "rdma: " << (config.exec.rdma_available ? "true" : "false")
       << '\n';
    os << "innetwork: "
       << (config.exec.innetwork_available ? "true" : "false") << '\n';
    os << "failsafe: "
       << (config.exec.failure.failsafe_switching ? "true" : "false")
       << '\n';
    os << "spine_contention: "
       << (config.exec.model_spine_contention ? "true" : "false") << '\n';
    os << strfmt("mtbf_hours: %g\n",
                 config.exec.failure.node_mtbf_hours);
    os << strfmt("persistent_failure_prob: %g\n",
                 config.exec.failure.persistent_prob);
    os << strfmt("checkpoint_interval_s: %g\n",
                 config.exec.checkpoint_interval_s);
    os << strfmt("checkpoint_cost_s: %g\n",
                 config.exec.checkpoint_cost_s);
    os << strfmt("restart_overhead_s: %g\n",
                 config.exec.restart_overhead_s);
    // Power keys appear only when the subsystem is on, keeping rendered
    // configs of power-free stacks byte-identical to the pre-power form.
    if (config.power.enabled) {
        os << "power: true\n";
        os << "power_policy: " << config.power.policy << '\n';
        os << strfmt("power_cluster_cap_w: %g\n",
                     config.power.cluster_cap_w);
        os << strfmt("power_rack_cap_w: %g\n", config.power.rack_cap_w);
        os << strfmt("power_pdu_cap_w: %g\n", config.power.pdu_cap_w);
        os << "power_racks_per_pdu: " << config.power.racks_per_pdu
           << '\n';
        os << strfmt("power_host_idle_w: %g\n", config.power.host_idle_w);
        os << strfmt("power_gpu_w: %g,%g\n",
                     config.power.default_gpu.idle_w,
                     config.power.default_gpu.active_w);
        for (const auto &[model, spec] : config.power.gpu_power) {
            os << strfmt("power_gpu_w: %s,%g,%g\n", model.c_str(),
                         spec.idle_w, spec.active_w);
        }
        os << strfmt("power_dvfs_exponent: %g\n",
                     config.power.dvfs_exponent);
        os << strfmt("power_min_clock: %g\n", config.power.min_clock);
    }
    // Prediction keys follow the power precedent: emitted only when the
    // subsystem is on, so prediction-free rendered configs stay
    // byte-identical to the pre-prediction form.
    if (config.predict.enabled) {
        os << "predict: true\n";
        os << "predict_mode: "
           << predict::estimator_mode_name(config.predict.mode) << '\n';
        os << strfmt("predict_decay: %g\n", config.predict.decay);
        os << "predict_sample_floor: " << config.predict.sample_floor
           << '\n';
        os << strfmt("predict_safety_min: %g\n",
                     config.predict.safety_min);
        os << strfmt("predict_safety_max: %g\n",
                     config.predict.safety_max);
        os << strfmt("predict_bias: %g\n", config.predict.bias);
        os << strfmt("predict_forecast_alpha: %g\n",
                     config.predict.forecast_alpha);
        os << strfmt("predict_forecast_beta: %g\n",
                     config.predict.forecast_beta);
    }
    os << "seed: " << config.seed << '\n';
    return os.str();
}

} // namespace tacc::core
