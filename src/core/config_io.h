/**
 * @file
 * Text form for deployment configurations.
 *
 * Operators describe a TACC deployment (cluster shape, hardware
 * generations, scheduler, quotas, failure/checkpoint policy) in the same
 * `key: value` dialect as the task schema (read by common/kv);
 * parse_stack_config() turns it
 * into a StackConfig and stack_config_to_text() renders one back
 * (parse(render(c)) reproduces every field the format carries). Used by
 * the tcloud CLI (`open <file>`) and the capacity-planner tool.
 *
 * Recognized keys (all optional; omissions keep defaults):
 *
 *   cluster: campus                 name
 *   racks / nodes_per_rack / gpus_per_node: ints
 *   gpu: A100,312,80                model,tflops,memory_gb
 *   rack_override: 2,V100,125,32,4  rack,model,tflops,mem_gb,gpus
 *   oversubscription / nic_gbps / nvlink_gbps: numbers
 *   scheduler / placement: factory names
 *   w_age / w_fairshare / w_qos / w_size: multifactor priority weights
 *   backfill_depth: queued jobs examined per backfill pass (0 = all)
 *   gang_quantum_s / las_threshold_gpu_s / preempt_cost_gpu_s: numbers
 *   usage_half_life_h: hours
 *   quota: group,max_gpus           (repeatable)
 *   default_quota: int              (<0 unlimited)
 *   avoid_gpu_mixing / rdma / innetwork / failsafe / spine_contention:
 *       true|false
 *   mtbf_hours / persistent_failure_prob / checkpoint_interval_s /
 *       checkpoint_cost_s / restart_overhead_s: numbers
 *   seed: int
 */
#pragma once

#include <string>

#include "common/status.h"
#include "core/stack.h"

namespace tacc::core {

/**
 * Parses the deployment dialect. Unknown keys and out-of-range values
 * are hard errors, and every diagnostic is prefixed with the offending
 * line number ("line 7: unknown key: ...") — checked-in presets that
 * rot fail loudly at load time instead of silently reverting knobs to
 * defaults.
 */
StatusOr<StackConfig> parse_stack_config(const std::string &text);

/** Renders a config back to the dialect (stable key order). */
std::string stack_config_to_text(const StackConfig &config);

} // namespace tacc::core
