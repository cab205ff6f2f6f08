#include "workloads.h"

#include <map>

#include "bench_util.h"

namespace perfbench {

using namespace tacc;

namespace {

/** Reference campus trace at the given length. default_trace() honours
 *  the CI job cap; the benchmark pins its own length instead. */
workload::TraceConfig
campus_trace(int jobs, uint64_t seed)
{
    workload::TraceConfig trace = bench::default_trace(jobs, seed);
    trace.num_jobs = jobs;
    return trace;
}

/** The bench_t17_million trace shape: short, lightly tailed,
 *  small-gang jobs at 4.5 s interarrival. */
workload::TraceConfig
t17_trace(int jobs, uint64_t seed)
{
    workload::TraceConfig trace;
    trace.num_jobs = jobs;
    trace.seed = seed;
    trace.mean_interarrival_s = 4.5;
    trace.batch_duration_mu = 4.6;
    trace.batch_duration_sigma = 0.9;
    trace.interactive_duration_mu = 4.2;
    trace.interactive_duration_sigma = 0.7;
    trace.max_duration_s = 3600.0;
    trace.gpu_demand_pmf = {
        {1, 0.55}, {2, 0.15}, {4, 0.14}, {8, 0.12}, {16, 0.04},
    };
    return trace;
}

/** The bounded registry of bench_t17_million: 512 GB of 64 MB chunks. */
void
bound_registry(core::StackConfig &stack)
{
    stack.compiler.cache_capacity_bytes = 512ull << 30;
    stack.compiler.chunk_bytes = 64ull << 20;
}

} // namespace

const std::vector<std::string> &
workload_names()
{
    static const std::vector<std::string> names = {
        "campus_ops", "t17_stream", "backlog", "golden_sweep"};
    return names;
}

bool
is_single(const std::string &name)
{
    return name == "campus_ops" || name == "t17_stream" ||
           name == "backlog";
}

core::ScenarioConfig
single_config(const std::string &name, uint64_t seed)
{
    core::ScenarioConfig config;
    config.stack = bench::default_stack();
    if (name == "campus_ops") {
        config.trace = campus_trace(500, kDefaultSeed);
    } else if (name == "t17_stream") {
        config.trace = t17_trace(100000, seed);
        config.streaming = true;
        bound_registry(config.stack);
    } else if (name == "backlog") {
        config.trace = campus_trace(2000, kDefaultSeed);
        config.stack.ops.enabled = false;
        bound_registry(config.stack);
    }
    return config;
}

std::optional<Expected>
expected_result(const std::string &name, uint64_t seed)
{
    if (name == "t17_stream" && seed != kDefaultSeed)
        return std::nullopt;
    static const std::map<std::string, Expected> pinned = {
        {"campus_ops", {0x8f885672e507119dull, 95654, 500}},
        {"t17_stream", {0x8dc730344c0f606dull, 314982, 100000}},
        {"backlog", {0x765b03ae4405ce31ull, 6000, 2000}},
    };
    const auto it = pinned.find(name);
    if (it == pinned.end())
        return std::nullopt;
    return it->second;
}

const std::vector<GoldenGrid> &
golden_grids()
{
    static const std::vector<GoldenGrid> grids = {
        {"base", "tests/goldens/ci_sweep.spec",
         "tests/goldens/sweep_digests.txt"},
        {"power", "tests/goldens/ci_sweep_power.spec",
         "tests/goldens/sweep_digests_power.txt"},
        {"serve", "tests/goldens/ci_sweep_serve.spec",
         "tests/goldens/sweep_digests_serve.txt"},
        {"predict", "tests/goldens/ci_sweep_predict.spec",
         "tests/goldens/sweep_digests_predict.txt"},
    };
    return grids;
}

StatusOr<driver::SweepSpec>
load_subset(const std::string &root, const GoldenGrid &grid)
{
    auto loaded = driver::load_sweep_spec(root + "/" + grid.spec_path);
    if (!loaded.is_ok())
        return loaded.status();
    driver::SweepSpec spec = loaded.value();
    spec.seeds = {1};
    if (grid.name == "power" || grid.name == "predict")
        spec.loads = {1.0};
    if (grid.name == "predict")
        spec.schedulers = {"backfill-easy"};
    return spec;
}

} // namespace perfbench
