#include "workload/task_spec.h"

#include <sstream>

#include "common/kv.h"

namespace tacc::workload {

const char *
qos_class_name(QosClass qos)
{
    switch (qos) {
      case QosClass::kInteractive: return "interactive";
      case QosClass::kBatch: return "batch";
      case QosClass::kBestEffort: return "besteffort";
    }
    return "unknown";
}

StatusOr<QosClass>
parse_qos_class(const std::string &name)
{
    if (name == "interactive")
        return QosClass::kInteractive;
    if (name == "batch")
        return QosClass::kBatch;
    if (name == "besteffort")
        return QosClass::kBestEffort;
    return Status::invalid_argument("unknown qos class: " + name);
}

const char *
runtime_pref_name(RuntimePref pref)
{
    switch (pref) {
      case RuntimePref::kAuto: return "auto";
      case RuntimePref::kBareMetal: return "baremetal";
      case RuntimePref::kContainer: return "container";
    }
    return "unknown";
}

StatusOr<RuntimePref>
parse_runtime_pref(const std::string &name)
{
    if (name == "auto")
        return RuntimePref::kAuto;
    if (name == "baremetal")
        return RuntimePref::kBareMetal;
    if (name == "container")
        return RuntimePref::kContainer;
    return Status::invalid_argument("unknown runtime: " + name);
}

const char *
transport_pref_name(TransportPref pref)
{
    switch (pref) {
      case TransportPref::kAuto: return "auto";
      case TransportPref::kTcp: return "tcp";
      case TransportPref::kRdma: return "rdma";
      case TransportPref::kInNetwork: return "innetwork";
    }
    return "unknown";
}

StatusOr<TransportPref>
parse_transport_pref(const std::string &name)
{
    if (name == "auto")
        return TransportPref::kAuto;
    if (name == "tcp")
        return TransportPref::kTcp;
    if (name == "rdma")
        return TransportPref::kRdma;
    if (name == "innetwork")
        return TransportPref::kInNetwork;
    return Status::invalid_argument("unknown transport: " + name);
}

Status
TaskSpec::validate() const
{
    if (name.empty())
        return Status::invalid_argument("task name is empty");
    if (user.empty())
        return Status::invalid_argument("user is empty");
    if (group.empty())
        return Status::invalid_argument("group is empty");
    if (gpus <= 0)
        return Status::invalid_argument(strfmt("gpus must be > 0, got %d",
                                               gpus));
    if (gpus_per_node_limit <= 0)
        return Status::invalid_argument("gpus_per_node_limit must be > 0");
    if (cpu_cores_per_gpu < 0 || memory_gb_per_gpu < 0)
        return Status::invalid_argument("negative cpu/memory demand");
    if (time_limit.is_zero() || time_limit.is_negative())
        return Status::invalid_argument("time_limit must be positive");
    if (deadline.is_negative())
        return Status::invalid_argument("deadline must be >= 0");
    if (model.empty())
        return Status::invalid_argument("model is empty");
    if (iterations <= 0)
        return Status::invalid_argument("iterations must be > 0");
    for (const auto &a : artifacts) {
        if (a.name.empty())
            return Status::invalid_argument("artifact with empty name");
        if (a.bytes == 0)
            return Status::invalid_argument("artifact '" + a.name +
                                            "' has zero size");
    }
    if (min_gpus < 0 || max_gpus < 0)
        return Status::invalid_argument("negative elastic bounds");
    if ((min_gpus == 0) != (max_gpus == 0))
        return Status::invalid_argument(
            "elastic bounds must both be set or both be zero");
    if (min_gpus > 0 && (min_gpus > max_gpus || gpus < min_gpus ||
                         gpus > max_gpus)) {
        return Status::invalid_argument(
            strfmt("elastic bounds [%d, %d] must bracket gpus=%d", min_gpus,
                   max_gpus, gpus));
    }
    return Status::ok();
}

std::string
TaskSpec::to_text() const
{
    std::ostringstream os;
    os << "task: " << name << '\n';
    os << "user: " << user << '\n';
    os << "group: " << group << '\n';
    os << "gpus: " << gpus << '\n';
    os << "gpu_model: " << gpu_model << '\n';
    os << "gpus_per_node_limit: " << gpus_per_node_limit << '\n';
    os << "cpu_cores_per_gpu: " << cpu_cores_per_gpu << '\n';
    os << "memory_gb_per_gpu: " << memory_gb_per_gpu << '\n';
    os << "qos: " << qos_class_name(qos) << '\n';
    os << "preemptible: " << (preemptible ? "true" : "false") << '\n';
    os << "time_limit_s: " << time_limit.to_micros() / 1'000'000 << '\n';
    os << "deadline_s: " << deadline.to_micros() / 1'000'000 << '\n';
    os << "model: " << model << '\n';
    os << "iterations: " << iterations << '\n';
    for (const auto &a : artifacts) {
        os << "artifact: " << a.name << ',' << a.bytes << ',' << a.version
           << '\n';
    }
    os << "runtime: " << runtime_pref_name(runtime) << '\n';
    os << "transport: " << transport_pref_name(transport) << '\n';
    os << "image: " << image << '\n';
    os << "min_gpus: " << min_gpus << '\n';
    os << "max_gpus: " << max_gpus << '\n';
    return os.str();
}

StatusOr<TaskSpec>
TaskSpec::parse(const std::string &text)
{
    TaskSpec spec;
    spec.artifacts.clear();

    auto apply = [&spec](const KvEntry &e) -> Status {
        const std::string &key = e.key;
        if (key == "task")
            return e.read(&spec.name);
        if (key == "user")
            return e.read(&spec.user);
        if (key == "group")
            return e.read(&spec.group);
        if (key == "gpus")
            return e.read(&spec.gpus);
        if (key == "gpu_model") {
            spec.gpu_model = e.value;
            return Status::ok();
        }
        if (key == "gpus_per_node_limit")
            return e.read(&spec.gpus_per_node_limit);
        if (key == "cpu_cores_per_gpu")
            return e.read(&spec.cpu_cores_per_gpu);
        if (key == "memory_gb_per_gpu")
            return e.read(&spec.memory_gb_per_gpu);
        if (key == "qos") {
            auto q = parse_qos_class(e.value);
            if (q.is_ok())
                spec.qos = q.value();
            return q.status();
        }
        if (key == "preemptible")
            return e.read(&spec.preemptible);
        if (key == "time_limit_s" || key == "deadline_s") {
            int64_t seconds = 0;
            if (auto s = e.read(&seconds); !s.is_ok())
                return s;
            (key == "deadline_s" ? spec.deadline : spec.time_limit) =
                Duration::seconds(seconds);
            return Status::ok();
        }
        if (key == "model")
            return e.read(&spec.model);
        if (key == "iterations")
            return e.read(&spec.iterations);
        if (key == "artifact") {
            const auto parts = e.items();
            Artifact a;
            if (parts.size() != 3 || !parse_int(parts[1], &a.bytes) ||
                !parse_int(parts[2], &a.version))
                return e.bad();
            a.name = parts[0];
            spec.artifacts.push_back(std::move(a));
            return Status::ok();
        }
        if (key == "runtime") {
            auto r = parse_runtime_pref(e.value);
            if (r.is_ok())
                spec.runtime = r.value();
            return r.status();
        }
        if (key == "transport") {
            auto t = parse_transport_pref(e.value);
            if (t.is_ok())
                spec.transport = t.value();
            return t.status();
        }
        if (key == "image") {
            spec.image = e.value;
            return Status::ok();
        }
        if (key == "min_gpus")
            return e.read(&spec.min_gpus);
        if (key == "max_gpus")
            return e.read(&spec.max_gpus);
        return Status::invalid_argument("unknown key: " + key);
    };
    if (auto s = read_kv(text, apply); !s.is_ok())
        return s;
    if (auto s = spec.validate(); !s.is_ok())
        return s;
    return spec;
}

} // namespace tacc::workload
