/**
 * @file
 * Task Schema Layer (layer 1 of the TACC workflow abstraction).
 *
 * Every task submitted to TACC is described by a self-contained TaskSpec:
 * resources and QoS, application artifacts (code, dependencies, dataset),
 * and the runtime environment. The spec has a canonical text form so that
 * a task is reproducible across TACC instances and shareable between
 * researchers — parse(to_text(spec)) round-trips exactly.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"

namespace tacc::workload {

/** Quality-of-service class of a task. */
enum class QosClass {
    kInteractive, ///< debugging / notebooks: low latency, short
    kBatch,       ///< normal training jobs
    kBestEffort,  ///< preemptible filler work
};

const char *qos_class_name(QosClass qos);
StatusOr<QosClass> parse_qos_class(const std::string &name);

/** Which execution-layer runtime the task wants (or auto-select). */
enum class RuntimePref { kAuto, kBareMetal, kContainer };

const char *runtime_pref_name(RuntimePref pref);
StatusOr<RuntimePref> parse_runtime_pref(const std::string &name);

/** Which transport the execution layer should use for collectives. */
enum class TransportPref { kAuto, kTcp, kRdma, kInNetwork };

const char *transport_pref_name(TransportPref pref);
StatusOr<TransportPref> parse_transport_pref(const std::string &name);

/**
 * A named content blob the task needs (code tree, wheel set, dataset).
 *
 * Artifacts are identified by (name, version); bytes drive the compiler
 * layer's chunking, and version changes model "the user edited 1% of it".
 */
struct Artifact {
    std::string name;
    uint64_t bytes = 0;
    uint64_t version = 1;

    bool
    operator==(const Artifact &o) const
    {
        return name == o.name && bytes == o.bytes && version == o.version;
    }
};

/** Complete, self-contained description of a task. */
struct TaskSpec {
    // Identity.
    std::string name;  ///< user-chosen task label
    std::string user;  ///< submitting account
    std::string group; ///< accounting / fair-share group

    // Resource demand (gang: all GPUs are required simultaneously).
    int gpus = 1;
    /** Required GPU model ("" = any; heterogeneous clusters only). */
    std::string gpu_model;
    int gpus_per_node_limit = 8; ///< worker granularity cap per node
    int cpu_cores_per_gpu = 8;
    double memory_gb_per_gpu = 64.0;

    // QoS.
    QosClass qos = QosClass::kBatch;
    bool preemptible = true;
    /** User-estimated runtime; schedulers treat it as a hint, backfill
     *  treats it as a hard reservation bound (Slurm-style time limit). */
    Duration time_limit = Duration::hours(24);
    /**
     * Completion deadline relative to submission; zero means none.
     * Deadline-aware schedulers order by it and count misses.
     */
    Duration deadline = Duration::zero();

    bool has_deadline() const { return !deadline.is_zero(); }

    // Application.
    std::string model = "resnet50"; ///< entry in the model catalog
    int64_t iterations = 1000;      ///< training steps to run
    std::vector<Artifact> artifacts;

    // Runtime environment.
    RuntimePref runtime = RuntimePref::kAuto;
    TransportPref transport = TransportPref::kAuto;
    std::string image = "tacc/pytorch:2.1";

    // Elasticity (Pollux-like schedulers may resize within this range).
    int min_gpus = 0; ///< 0 means "not elastic"
    int max_gpus = 0;

    bool is_elastic() const { return min_gpus > 0 && max_gpus > min_gpus; }

    /** Validates every field; returns the first problem found. */
    Status validate() const;

    /** Canonical text rendering (stable field order). */
    std::string to_text() const;

    /** Parses the canonical text form (the common/kv dialect). Unknown
     *  keys and bad values are errors that name their line; the whole
     *  spec then goes through validate(). */
    static StatusOr<TaskSpec> parse(const std::string &text);

    bool operator==(const TaskSpec &o) const = default;
};

} // namespace tacc::workload
