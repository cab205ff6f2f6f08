/**
 * @file
 * perfbench — the repo benchmark harness.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--root DIR] [--spans FILE]
 *   perfbench --selftest [--root DIR]
 *   perfbench --list-metrics
 *
 * Drives the simulator only through its public surface (TaccStack,
 * Simulator::step, Compiler::compile, the sweep driver and its digests)
 * and repeats the workload for S seconds. With --trace 0 it prints the
 * end-to-end metrics of untraced runs; with --trace 1 it prints the
 * per-layer metrics of a separate run that records spans from this file
 * around each call into a layer. Every simulated result is checked; the
 * last line of stdout is one JSON object and the exit code is non-zero
 * when any check failed.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/proc.h"
#include "common/stats.h"
#include "core/digest.h"
#include "core/scenario.h"
#include "core/stack.h"
#include "driver/digest.h"
#include "driver/runner.h"
#include "driver/sweep.h"
#include "spans.h"
#include "workload/stream.h"
#include "workload/trace.h"
#include "workloads.h"

using namespace tacc;
using namespace perfbench;

namespace {

struct MetricSpec {
    const char *name;
    const char *unit;
};

/** Printed by every --trace 0 run. Mirrors BENCHMARK.json end_to_end. */
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},           {"wall_s", "s"},
    {"jobs_per_s", "1/s"},      {"peak_rss_mb", "MB"},
    {"scenario_ms_p50", "ms"},  {"scenario_ms_p90", "ms"},
};

/** Printed by every --trace 1 run. Mirrors BENCHMARK.json per_layer;
 *  a layer a workload does not reach reads 0. */
const std::vector<MetricSpec> kPerLayer = {
    {"step.ops_s", "s"},
    {"step.ops_n", "count"},
    {"step.arrival_s", "s"},
    {"step.arrival_n", "count"},
    {"step.dispatch_s", "s"},
    {"step.dispatch_n", "count"},
    {"step.other_s", "s"},
    {"step.other_n", "count"},
    {"step.ops_share", "fraction"},
    {"step.arrival_share", "fraction"},
    {"step.dispatch_share", "fraction"},
    {"step.other_share", "fraction"},
    {"step.coverage", "fraction"},
    {"ops.samples", "count"},
    {"ops.us_per_sample", "us"},
    {"ops.series", "count"},
    {"ops.share", "fraction"},
    {"ops.on_wall_s", "s"},
    {"ops.off_wall_s", "s"},
    {"compiler.compile_s", "s"},
    {"compiler.calls", "count"},
    {"compiler.chunk_lookups", "count"},
    {"compiler.hit_ratio", "fraction"},
    {"compiler.evictions", "count"},
    {"compiler.ns_per_lookup", "ns"},
    {"compiler.replay_over_arrival", "ratio"},
    {"sched.pending_mean", "count"},
    {"sched.pending_max", "count"},
    {"sched.ns_per_pending", "ns"},
    {"workload.generate_s", "s"},
    {"workload.jobs", "count"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"core.digest_s", "s"},
    {"driver.parallel_efficiency", "fraction"},
    {"driver.scenario_ms_sum", "ms"},
    {"driver.worker_ms", "ms"},
    {"driver.scenarios", "count"},
    {"driver.grid_s.base", "s"},
    {"driver.grid_s.power", "s"},
    {"driver.grid_s.serve", "s"},
    {"driver.grid_s.predict", "s"},
    {"trace.overhead", "fraction"},
    {"trace.traced_wall_s", "s"},
    {"trace.untraced_wall_s", "s"},
};

/** Repeats per run, however short --seconds is. */
constexpr size_t kMinReps = 3;

/** Set-ups timed on their own after each repeat or sweep pass. A run
 *  has only a few repeats, while one set-up takes milliseconds and
 *  swings by up to 2x with the host's load, so setup_s is the median
 *  of these and the repeats' own set-ups together. */
constexpr int kExtraSetups = 15;

double
seconds_between(Clock::time_point a, Clock::time_point b)
{
    return double(ns_between(a, b)) * 1e-9;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
median(const std::vector<double> &xs)
{
    Samples s;
    for (double x : xs)
        s.add(x);
    return s.empty() ? 0.0 : s.median();
}

/** Outcome of one benchmark run: the checks and the metric values. */
struct Outcome {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool internal_error = false;
    std::map<std::string, double> values;

    /** Counts one simulated operation, failed when `error` is set. */
    void
    record(const std::string &what, const std::string &error)
    {
        ++attempted;
        if (!error.empty()) {
            ++failed;
            std::fprintf(stderr, "FAIL %s: %s\n", what.c_str(),
                         error.c_str());
        }
    }
};

// ---------------------------------------------------------------------
// Single-scenario workloads
// ---------------------------------------------------------------------

enum StepClass { kOps, kArrival, kDispatch, kOther, kStepClasses };
/** Span name and metric prefix of each step class. */
const char *const kStepNames[kStepClasses] = {
    "step.ops", "step.arrival", "step.dispatch", "step.other"};

/** Host time per step class, plus the queue depth each dispatch step
 *  started from. */
struct StepTrace {
    int64_t ns[kStepClasses] = {};
    uint64_t n[kStepClasses] = {};
    uint64_t pending_sum = 0;
    uint64_t pending_max = 0;
};

struct RepResult {
    double setup_s = 0;
    double wall_s = 0;
    double digest_s = 0;
    uint64_t digest = 0;
    uint64_t events = 0;
    size_t submitted = 0;
    size_t completed = 0;
    size_t never_finished = 0;
    bool quiesced = false;
    double makespan_s = 0;
    uint64_t ops_samples = 0;
    size_t ops_series = 0;
};

/**
 * Steps the stack one event at a time, classifying each step by the
 * first public counter it moved: ops samples, then compiled tasks, then
 * the pending or running set; anything else is "other". Consecutive
 * steps of one class are merged into one span. run_to_completion()
 * then closes the books exactly as an untraced run does.
 */
bool
step_to_completion(core::TaccStack &stack, uint64_t max_events,
                   StepTrace &steps, SpanRecorder *spans)
{
    sim::Simulator &sim = stack.simulator();
    const ops::OpsCenter *ops = stack.ops();
    const compiler::CompilerStats &compiled = stack.task_compiler().stats();

    int span_class = -1;
    Clock::time_point span_start;
    Clock::time_point span_end;
    uint64_t span_count = 0;
    uint64_t fired = 0;
    while (!stack.quiescent() && fired < max_events) {
        const uint64_t samples0 = ops ? ops->samples_taken() : 0;
        const uint64_t compiled0 = compiled.tasks_compiled;
        const size_t pending0 = stack.pending_count();
        const size_t running0 = stack.running_count();
        const Clock::time_point start = Clock::now();
        if (!sim.step())
            break;
        const Clock::time_point end = Clock::now();
        ++fired;

        StepClass cls = kOther;
        if (ops && ops->samples_taken() != samples0)
            cls = kOps;
        else if (compiled.tasks_compiled != compiled0)
            cls = kArrival;
        else if (stack.pending_count() != pending0 ||
                 stack.running_count() != running0)
            cls = kDispatch;
        steps.ns[cls] += ns_between(start, end);
        ++steps.n[cls];
        if (cls == kDispatch) {
            steps.pending_sum += pending0;
            steps.pending_max = std::max<uint64_t>(steps.pending_max,
                                                   pending0);
        }
        if (spans) {
            if (cls != span_class) {
                if (span_class >= 0)
                    spans->add(kStepNames[span_class], span_start,
                               span_end, span_count);
                span_class = cls;
                span_start = start;
                span_count = 0;
            }
            span_end = end;
            ++span_count;
        }
    }
    if (spans && span_class >= 0)
        spans->add(kStepNames[span_class], span_start, span_end,
                   span_count);
    ScopedSpan close(spans, "close_books");
    return stack.run_to_completion(max_events);
}

/** The run's determinism digest, folded exactly as run_scenario and the
 *  sweep driver fold it. */
uint64_t
run_digest(const core::ScenarioConfig &config, core::TaccStack &stack,
           RepResult &rep)
{
    core::MetricsCollector &metrics = stack.metrics();
    core::ScenarioResult result;
    result.scheduler = config.stack.scheduler;
    result.placement = config.stack.placement;
    result.streaming = config.streaming;
    result.submitted = size_t(stack.total_submitted());
    result.completed = metrics.completed_count();
    result.failed = metrics.failed_count();
    for (const workload::Job *job : stack.jobs()) {
        if (!job->terminal())
            ++result.never_finished;
    }
    result.preemptions = metrics.preemptions();
    result.segment_failures = metrics.segment_failures();
    if (config.streaming) {
        core::RunDigestCounts counts;
        counts.submitted = result.submitted;
        counts.completed = result.completed;
        counts.failed = result.failed;
        counts.never_finished = result.never_finished;
        counts.preemptions = result.preemptions;
        counts.segment_failures = result.segment_failures;
        result.digest = metrics.finish_streaming_digest(counts);
    } else {
        result.records = metrics.records();
    }
    rep.submitted = result.submitted;
    rep.completed = result.completed;
    rep.never_finished = result.never_finished;
    return driver::scenario_digest(result);
}

/** A stack with its workload submitted, ready to run. */
struct SetUp {
    // The stream is declared first so it outlives the stack reading it.
    std::unique_ptr<workload::SyntheticWorkloadStream> stream;
    std::unique_ptr<core::TaccStack> stack;
    std::vector<workload::SubmittedTask> trace;
};

/** Set-up: builds the stack, then generates and submits the trace or
 *  primes the stream. */
SetUp
set_up(const core::ScenarioConfig &config, SpanRecorder *spans)
{
    SetUp out;
    ScopedSpan setup(spans, "setup");
    core::StackConfig stack_config = config.stack;
    stack_config.streaming = config.streaming;
    {
        ScopedSpan s(spans, "setup.stack");
        out.stack = std::make_unique<core::TaccStack>(std::move(stack_config));
    }
    if (config.streaming) {
        ScopedSpan s(spans, "setup.stream_prime");
        out.stream =
            std::make_unique<workload::SyntheticWorkloadStream>(config.trace);
        out.stack->submit_stream(*out.stream, config.stream_window);
    } else {
        {
            ScopedSpan s(spans, "setup.generate");
            out.trace = workload::TraceGenerator(config.trace).generate();
        }
        ScopedSpan s(spans, "setup.submit");
        out.stack->submit_trace(out.trace);
    }
    return out;
}

/** Times `n` set-ups, each torn down before the next, into `setup`. */
void
time_setups(const core::ScenarioConfig &config, int n,
            std::vector<double> &setup)
{
    for (int i = 0; i < n; ++i) {
        const Clock::time_point t0 = Clock::now();
        const SetUp ready = set_up(config, nullptr);
        setup.push_back(seconds_between(t0, Clock::now()));
    }
}

/** One repeat: set-up, the run, the digest. With `steps` set the run is
 *  stepped and classified. */
RepResult
run_rep(const core::ScenarioConfig &config, StepTrace *steps,
        SpanRecorder *spans)
{
    RepResult rep;
    ScopedSpan rep_span(spans, steps ? "rep.traced" : "rep.untraced");
    const Clock::time_point t0 = Clock::now();
    SetUp ready = set_up(config, spans);
    core::TaccStack *stack = ready.stack.get();
    const Clock::time_point t1 = Clock::now();
    {
        ScopedSpan run(spans, "run");
        rep.quiesced =
            steps ? step_to_completion(*stack, config.max_events, *steps,
                                       spans)
                  : stack->run_to_completion(config.max_events);
    }
    const Clock::time_point t2 = Clock::now();
    {
        ScopedSpan digest(spans, "digest");
        rep.digest = run_digest(config, *stack, rep);
    }
    const Clock::time_point t3 = Clock::now();
    rep.setup_s = seconds_between(t0, t1);
    rep.wall_s = seconds_between(t1, t2);
    rep.digest_s = seconds_between(t2, t3);
    rep.events = stack->simulator().processed();
    rep.makespan_s = stack->metrics().makespan().to_seconds();
    if (const ops::OpsCenter *ops = stack->ops()) {
        rep.ops_samples = ops->samples_taken();
        rep.ops_series = ops->store().series_count();
    }
    return rep;
}

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

/** Checks one repeat against the pinned result (default seed) and the
 *  run's first repeat (every seed). Returns "" when it passes. */
std::string
check_rep(const RepResult &rep, const std::optional<Expected> &expected,
          const RepResult *reference)
{
    if (!rep.quiesced || rep.never_finished > 0)
        return "run did not quiesce";
    if (expected) {
        if (rep.digest != expected->digest)
            return "digest " + hex(rep.digest) + " != pinned " +
                   hex(expected->digest);
        if (rep.events != expected->events)
            return "sim events " + std::to_string(rep.events) +
                   " != pinned " + std::to_string(expected->events);
        if (rep.completed != expected->completed)
            return "completed " + std::to_string(rep.completed) +
                   " != pinned " + std::to_string(expected->completed);
    }
    if (reference) {
        if (rep.digest != reference->digest)
            return "digest " + hex(rep.digest) + " differs from first run " +
                   hex(reference->digest);
        if (rep.events != reference->events ||
            rep.completed != reference->completed ||
            rep.makespan_s != reference->makespan_s)
            return "events/completed/makespan differ from first run";
    }
    return "";
}

void
single_untraced(const std::string &name, uint64_t seed, double seconds,
                Outcome &out)
{
    const core::ScenarioConfig config = single_config(name, seed);
    const std::optional<Expected> expected = expected_result(name, seed);
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));

    std::vector<RepResult> reps;
    std::vector<double> setup;
    do {
        reps.push_back(run_rep(config, nullptr, nullptr));
        out.record(name + " repeat " + std::to_string(reps.size()),
                   check_rep(reps.back(), expected,
                             reps.size() > 1 ? &reps.front() : nullptr));
        setup.push_back(reps.back().setup_s);
        time_setups(config, kExtraSetups, setup);
    } while (reps.size() < kMinReps || Clock::now() < deadline);

    std::vector<double> wall;
    Samples scenario_ms;
    for (const RepResult &rep : reps) {
        wall.push_back(rep.wall_s);
        scenario_ms.add((rep.setup_s + rep.wall_s + rep.digest_s) * 1e3);
    }
    const double wall_s = median(wall);
    out.values["setup_s"] = median(setup);
    out.values["wall_s"] = wall_s;
    out.values["jobs_per_s"] = ratio(double(reps.front().submitted), wall_s);
    out.values["peak_rss_mb"] = double(peak_rss_bytes()) / (1024.0 * 1024.0);
    out.values["scenario_ms_p50"] = scenario_ms.percentile(50);
    out.values["scenario_ms_p90"] = scenario_ms.percentile(90);
    std::printf("digest %s  sim.events %llu  completed %zu  submitted %zu\n",
                hex(reps.front().digest).c_str(),
                (unsigned long long)reps.front().events,
                reps.front().completed, reps.front().submitted);
    std::printf("samples: %zu repeats\n", reps.size());
}

struct ReplayResult {
    double compile_s = 0;
    uint64_t calls = 0;
    uint64_t errors = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
};

/** Replays Compiler::compile over the workload's specs in arrival
 *  order on a fresh compiler with the workload's CompilerConfig; only
 *  the compile calls are timed. */
ReplayResult
replay_compiles(const core::ScenarioConfig &config, SpanRecorder *spans)
{
    ScopedSpan span(spans, "compile_replay");
    ReplayResult out;
    compiler::Compiler compiler(config.stack.compiler);
    workload::SyntheticWorkloadStream stream(config.trace);
    std::vector<workload::SubmittedTask> window;
    int64_t ns = 0;
    for (;;) {
        window.clear();
        if (stream.pull(window, config.stream_window) == 0)
            break;
        const Clock::time_point start = Clock::now();
        for (const workload::SubmittedTask &task : window) {
            if (!compiler.compile(task.spec).is_ok())
                ++out.errors;
            ++out.calls;
        }
        ns += ns_between(start, Clock::now());
    }
    out.compile_s = double(ns) * 1e-9;
    out.hits = compiler.cache().hits();
    out.misses = compiler.cache().misses();
    out.evictions = compiler.cache().evictions();
    return out;
}

/** Host time to produce the workload's specs: the whole trace up front
 *  for a materialized run, every stream window for a streaming one. */
double
time_generation(const core::ScenarioConfig &config, uint64_t *jobs,
                SpanRecorder *spans)
{
    ScopedSpan span(spans, "workload.generate");
    const Clock::time_point start = Clock::now();
    if (config.streaming) {
        workload::SyntheticWorkloadStream stream(config.trace);
        std::vector<workload::SubmittedTask> window;
        *jobs = 0;
        for (;;) {
            window.clear();
            const size_t n = stream.pull(window, config.stream_window);
            if (n == 0)
                break;
            *jobs += n;
        }
    } else {
        *jobs = workload::TraceGenerator(config.trace).generate().size();
    }
    return seconds_between(start, Clock::now());
}

void
single_traced(const std::string &name, uint64_t seed, double seconds,
              SpanRecorder &spans, Outcome &out)
{
    const core::ScenarioConfig config = single_config(name, seed);
    core::ScenarioConfig ops_off = config;
    ops_off.stack.ops.enabled = false;
    const bool has_ops = config.stack.ops.enabled;
    const std::optional<Expected> expected = expected_result(name, seed);
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));

    std::vector<RepResult> untraced;
    std::vector<RepResult> traced;
    std::vector<StepTrace> steps;
    std::vector<double> off_wall;
    do {
        untraced.push_back(run_rep(config, nullptr, &spans));
        out.record(name + " untraced repeat",
                   check_rep(untraced.back(), expected,
                             untraced.size() > 1 ? &untraced.front()
                                                 : nullptr));
        steps.emplace_back();
        traced.push_back(run_rep(config, &steps.back(), &spans));
        // The traced run must reach the untraced run's events,
        // completed count and makespan, and cover its wall with steps.
        std::string error =
            check_rep(traced.back(), expected, &untraced.front());
        const StepTrace &st = steps.back();
        int64_t step_ns = 0;
        for (int c = 0; c < kStepClasses; ++c)
            step_ns += st.ns[c];
        const double coverage =
            ratio(double(step_ns) * 1e-9, traced.back().wall_s);
        if (error.empty() && (coverage < 0.9 || coverage > 1.0))
            error = "step classes cover " + std::to_string(coverage) +
                    " of traced wall (need 0.9..1.0)";
        out.record(name + " traced repeat", error);
        if (has_ops) {
            ScopedSpan twin(&spans, "ops_off_twin");
            const RepResult off = run_rep(ops_off, nullptr, nullptr);
            off_wall.push_back(off.wall_s);
            out.record(name + " ops-off twin",
                       off.digest == untraced.front().digest
                           ? check_rep(off, std::nullopt, nullptr)
                           : "ops-off digest " + hex(off.digest) +
                                 " differs from ops-on " +
                                 hex(untraced.front().digest));
        }
    } while (Clock::now() < deadline);

    const ReplayResult replay = replay_compiles(config, &spans);
    uint64_t jobs = 0;
    const double generate_s = time_generation(config, &jobs, &spans);
    if (replay.errors > 0) {
        out.record(name + " compile replay",
                   std::to_string(replay.errors) + " compile errors");
    }

    // Per-class times are medians over the traced repeats; counts are
    // identical across repeats.
    std::vector<double> traced_wall;
    std::vector<double> untraced_wall;
    std::vector<double> digest_s;
    for (const RepResult &rep : traced) {
        traced_wall.push_back(rep.wall_s);
        digest_s.push_back(rep.digest_s);
    }
    for (const RepResult &rep : untraced)
        untraced_wall.push_back(rep.wall_s);
    const double traced_s = median(traced_wall);
    const double untraced_s = median(untraced_wall);
    const StepTrace &counts = steps.front();
    double covered_s = 0;
    for (int c = 0; c < kStepClasses; ++c) {
        std::vector<double> class_s;
        for (const StepTrace &st : steps)
            class_s.push_back(double(st.ns[c]) * 1e-9);
        const double s = median(class_s);
        covered_s += s;
        const std::string key = kStepNames[c];
        out.values[key + "_s"] = s;
        out.values[key + "_n"] = double(counts.n[c]);
        out.values[key + "_share"] = ratio(s, traced_s);
    }
    out.values["step.coverage"] = ratio(covered_s, traced_s);

    const RepResult &first = traced.front();
    out.values["ops.samples"] = double(first.ops_samples);
    out.values["ops.us_per_sample"] =
        ratio(out.values["step.ops_s"] * 1e6, double(first.ops_samples));
    out.values["ops.series"] = double(first.ops_series);
    if (has_ops) {
        const double off_s = median(off_wall);
        out.values["ops.share"] = 1.0 - ratio(off_s, untraced_s);
        out.values["ops.on_wall_s"] = untraced_s;
        out.values["ops.off_wall_s"] = off_s;
    }

    const uint64_t lookups = replay.hits + replay.misses;
    out.values["compiler.compile_s"] = replay.compile_s;
    out.values["compiler.calls"] = double(replay.calls);
    out.values["compiler.chunk_lookups"] = double(lookups);
    out.values["compiler.hit_ratio"] =
        ratio(double(replay.hits), double(lookups));
    out.values["compiler.evictions"] = double(replay.evictions);
    out.values["compiler.ns_per_lookup"] =
        ratio(replay.compile_s * 1e9, double(lookups));
    out.values["compiler.replay_over_arrival"] =
        ratio(replay.compile_s, out.values["step.arrival_s"]);
    std::printf("compile replay %.6f s next to step.arrival_s %.6f s%s\n",
                replay.compile_s, out.values["step.arrival_s"],
                replay.compile_s > out.values["step.arrival_s"]
                    ? "  FLAG: replay exceeds the arrival steps"
                    : "");

    out.values["sched.pending_mean"] =
        ratio(double(counts.pending_sum), double(counts.n[kDispatch]));
    out.values["sched.pending_max"] = double(counts.pending_max);
    out.values["sched.ns_per_pending"] =
        ratio(out.values["step.dispatch_s"] * 1e9, double(counts.pending_sum));

    out.values["workload.generate_s"] = generate_s;
    out.values["workload.jobs"] = double(jobs);
    out.values["sim.events"] = double(first.events);
    out.values["sim.ns_per_event"] =
        ratio(untraced_s * 1e9, double(first.events));
    out.values["core.digest_s"] = median(digest_s);

    out.values["trace.overhead"] = ratio(traced_s, untraced_s) - 1.0;
    out.values["trace.traced_wall_s"] = traced_s;
    out.values["trace.untraced_wall_s"] = untraced_s;
    std::printf("digest %s  sim.events %llu  completed %zu\n",
                hex(first.digest).c_str(), (unsigned long long)first.events,
                first.completed);
    std::printf("samples: %zu traced, %zu untraced, %zu ops-off repeats\n",
                traced.size(), untraced.size(), off_wall.size());
}

// ---------------------------------------------------------------------
// The golden sweep workload
// ---------------------------------------------------------------------

struct LoadedGrid {
    const GoldenGrid *def = nullptr;
    driver::SweepSpec spec;
    size_t scenarios = 0;
    /** Golden digests of the subset's scenarios, by name. */
    std::map<std::string, std::string> golden;
    /** The same lines in the checked-in golden-file format. */
    std::string golden_text;
};

/** Spec load plus expand_sweep for every grid: the sweep's set-up. */
bool
load_grids(const std::string &root, std::vector<LoadedGrid> &grids,
           Outcome &out)
{
    grids.clear();
    for (const GoldenGrid &def : golden_grids()) {
        auto spec = load_subset(root, def);
        if (!spec.is_ok()) {
            std::fprintf(stderr, "%s\n", spec.status().str().c_str());
            out.internal_error = true;
            return false;
        }
        LoadedGrid grid;
        grid.def = &def;
        grid.spec = spec.value();
        grid.scenarios = driver::expand_sweep(grid.spec).size();
        grids.push_back(std::move(grid));
    }
    return true;
}

/** Reads each grid's golden digests for the subset's scenario names. */
bool
read_goldens(const std::string &root, std::vector<LoadedGrid> &grids,
             Outcome &out)
{
    for (LoadedGrid &grid : grids) {
        std::set<std::string> names;
        for (const auto &scenario : driver::expand_sweep(grid.spec))
            names.insert(scenario.name);
        std::ifstream in(root + "/" + grid.def->golden_path);
        if (!in) {
            std::fprintf(stderr, "cannot read %s\n",
                         grid.def->golden_path.c_str());
            out.internal_error = true;
            return false;
        }
        std::string line;
        while (std::getline(in, line)) {
            std::istringstream fields(line);
            std::string name;
            std::string digest;
            if (fields >> name >> digest && names.count(name)) {
                grid.golden[name] = digest;
                grid.golden_text += name + " " + digest + "\n";
            }
        }
        if (grid.golden.size() != names.size()) {
            std::fprintf(stderr, "%s: %zu of %zu subset scenarios have a "
                                 "golden digest\n",
                         grid.def->name.c_str(), grid.golden.size(),
                         names.size());
            out.internal_error = true;
            return false;
        }
    }
    return true;
}

struct SweepPass {
    double wall_s = 0;
    std::map<std::string, double> grid_s;
    std::vector<double> scenario_ms;
    double scenario_ms_sum = 0;
    double worker_ms = 0;
    uint64_t submitted = 0;
    double digest_s = 0;
};

/** One pass over every grid through run_sweep, each run checked
 *  against its golden digest. */
SweepPass
sweep_pass(const std::vector<LoadedGrid> &grids, SpanRecorder *spans,
           Outcome &out)
{
    SweepPass pass;
    ScopedSpan pass_span(spans, spans ? "pass.traced" : "pass.untraced");
    const Clock::time_point start = Clock::now();
    for (const LoadedGrid &grid : grids) {
        ScopedSpan grid_span(spans, grid.def->name.c_str());
        driver::SweepSummary summary;
        {
            ScopedSpan s(spans, "run_sweep");
            const Clock::time_point t0 = Clock::now();
            summary = driver::run_sweep(grid.spec, kSweepWorkers);
            pass.grid_s[grid.def->name] = seconds_between(t0, Clock::now());
        }
        ScopedSpan s(spans, "check_digests");
        const driver::GoldenCheck check =
            driver::check_digests(summary, grid.golden_text);
        uint64_t bad = 0;
        for (const driver::RunResult &run : summary.runs) {
            std::string error;
            const auto golden = grid.golden.find(run.scenario.name);
            if (run.result.never_finished > 0)
                error = "run did not quiesce";
            else if (golden == grid.golden.end())
                error = "no golden digest";
            else if (golden->second != hex(run.digest))
                error = "digest " + hex(run.digest) + " != golden " +
                        golden->second;
            out.record(grid.def->name + " " + run.scenario.name, error);
            bad += error.empty() ? 0 : 1;
            pass.scenario_ms.push_back(run.wall_ms);
            pass.scenario_ms_sum += run.wall_ms;
            pass.submitted += run.result.submitted;
        }
        if (!check.ok && bad == 0) {
            out.record(grid.def->name + " check_digests", check.report);
        }
        pass.worker_ms += double(summary.workers) * summary.wall_ms;
        if (spans) {
            ScopedSpan d(spans, "scenario_digest");
            const Clock::time_point t0 = Clock::now();
            for (const driver::RunResult &run : summary.runs) {
                if (driver::scenario_digest(run.result) != run.digest)
                    out.record(run.scenario.name, "digest recompute differs");
            }
            pass.digest_s += seconds_between(t0, Clock::now());
        }
    }
    pass.wall_s = seconds_between(start, Clock::now());
    return pass;
}

void
sweep_run(const std::string &root, double seconds, SpanRecorder *spans,
          Outcome &out)
{
    std::vector<LoadedGrid> grids;
    if (!load_grids(root, grids, out) || !read_goldens(root, grids, out))
        return;
    size_t scenarios = 0;
    for (const LoadedGrid &grid : grids)
        scenarios += grid.scenarios;

    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    std::vector<SweepPass> untraced;
    std::vector<SweepPass> traced;
    std::vector<double> setup;
    std::vector<LoadedGrid> loaded;
    do {
        untraced.push_back(sweep_pass(grids, nullptr, out));
        if (spans)
            traced.push_back(sweep_pass(grids, spans, out));
        // Set-up samples are taken after the pass's results are torn
        // down, as a single-scenario repeat's extra set-ups are.
        for (int i = 0; i < kExtraSetups; ++i) {
            loaded.clear();
            const Clock::time_point t0 = Clock::now();
            load_grids(root, loaded, out);
            setup.push_back(seconds_between(t0, Clock::now()));
        }
    } while ((!spans && untraced.size() < 2) || Clock::now() < deadline);

    std::vector<double> untraced_wall;
    Samples scenario_ms;
    for (const SweepPass &pass : untraced) {
        untraced_wall.push_back(pass.wall_s);
        for (double ms : pass.scenario_ms)
            scenario_ms.add(ms);
    }
    const double wall_s = median(untraced_wall);
    if (!spans) {
        out.values["setup_s"] = median(setup);
        out.values["wall_s"] = wall_s;
        out.values["jobs_per_s"] =
            ratio(double(untraced.front().submitted), wall_s);
        out.values["peak_rss_mb"] =
            double(peak_rss_bytes()) / (1024.0 * 1024.0);
        out.values["scenario_ms_p50"] = scenario_ms.percentile(50);
        out.values["scenario_ms_p90"] = scenario_ms.percentile(90);
        std::printf("samples: %zu passes of %zu scenarios at %d workers, "
                    "scenario_ms over %zu runs\n",
                    untraced.size(), scenarios, kSweepWorkers,
                    scenario_ms.count());
        return;
    }

    std::vector<double> traced_wall;
    std::vector<double> efficiency;
    std::vector<double> scenario_sum;
    std::vector<double> worker_ms;
    std::vector<double> digest_s;
    std::map<std::string, std::vector<double>> grid_s;
    for (const SweepPass &pass : traced) {
        traced_wall.push_back(pass.wall_s);
        efficiency.push_back(ratio(pass.scenario_ms_sum, pass.worker_ms));
        scenario_sum.push_back(pass.scenario_ms_sum);
        worker_ms.push_back(pass.worker_ms);
        digest_s.push_back(pass.digest_s);
        for (const auto &[grid, s] : pass.grid_s)
            grid_s[grid].push_back(s);
    }
    const double traced_s = median(traced_wall);
    out.values["driver.parallel_efficiency"] = median(efficiency);
    out.values["driver.scenario_ms_sum"] = median(scenario_sum);
    out.values["driver.worker_ms"] = median(worker_ms);
    out.values["driver.scenarios"] = double(scenarios);
    for (const auto &[grid, s] : grid_s)
        out.values["driver.grid_s." + grid] = median(s);
    out.values["workload.jobs"] = double(traced.front().submitted);
    out.values["core.digest_s"] = median(digest_s);
    out.values["trace.overhead"] = ratio(traced_s, wall_s) - 1.0;
    out.values["trace.traced_wall_s"] = traced_s;
    out.values["trace.untraced_wall_s"] = wall_s;
    std::printf("samples: %zu traced and %zu untraced passes of %zu "
                "scenarios at %d workers\n",
                traced.size(), untraced.size(), scenarios, kSweepWorkers);
}

// ---------------------------------------------------------------------
// Self-tests and output
// ---------------------------------------------------------------------

bool
valid_metric_name(const std::string &name)
{
    static const std::regex pattern("[A-Za-z0-9_.-]+");
    return std::regex_match(name, pattern);
}

/** Checks that hold without a timed run; returns the failure count. */
int
selftest(const std::string &root)
{
    int failures = 0;
    auto expect = [&](bool ok, const std::string &what) {
        std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
        failures += ok ? 0 : 1;
    };

    std::set<std::string> names;
    for (const auto *table : {&kEndToEnd, &kPerLayer}) {
        for (const MetricSpec &m : *table) {
            expect(valid_metric_name(m.name) && *m.unit != '\0' &&
                       names.insert(m.name).second,
                   std::string("metric ") + m.name + " [" + m.unit + "]");
        }
    }

    // The sweep subset is a fixed canonical-order list: two loads
    // expand to the same names, and it keeps all four grids and enough
    // scenarios for a p90 with ten samples beyond it.
    Outcome scratch;
    std::vector<LoadedGrid> a;
    std::vector<LoadedGrid> b;
    bool loaded = load_grids(root, a, scratch) && load_grids(root, b, scratch);
    loaded = loaded && read_goldens(root, a, scratch);
    expect(loaded, "golden subset loads with a golden digest per scenario");
    if (loaded) {
        size_t total = 0;
        bool same = a.size() == b.size() && a.size() == 4;
        for (size_t g = 0; same && g < a.size(); ++g) {
            const auto x = driver::expand_sweep(a[g].spec);
            const auto y = driver::expand_sweep(b[g].spec);
            same = x.size() == y.size() && !x.empty();
            for (size_t i = 0; same && i < x.size(); ++i)
                same = x[i].name == y[i].name;
            total += x.size();
            std::printf("     grid %s: %zu scenarios\n",
                        a[g].def->name.c_str(), x.size());
        }
        expect(same, "golden subset expands identically twice");
        expect(total >= 100, "golden subset has " + std::to_string(total) +
                                 " >= 100 scenarios");
    }

    // The stepped harness folds the same digest as core::run_scenario.
    for (const std::string &name : workload_names()) {
        if (!is_single(name))
            continue;
        const core::ScenarioConfig config = single_config(name, kDefaultSeed);
        const uint64_t reference =
            driver::scenario_digest(core::run_scenario(config));
        StepTrace steps;
        const RepResult stepped = run_rep(config, &steps, nullptr);
        const RepResult plain = run_rep(config, nullptr, nullptr);
        expect(stepped.digest == reference && plain.digest == reference,
               name + " harness digest " + hex(plain.digest) +
                   " == run_scenario digest " + hex(reference));
        const std::optional<Expected> pinned =
            expected_result(name, kDefaultSeed);
        expect(pinned && check_rep(plain, pinned, nullptr).empty(),
               name + " matches its pinned digest, events (" +
                   std::to_string(plain.events) + ") and completed (" +
                   std::to_string(plain.completed) + ")");
    }
    return failures;
}

void
print_result(const std::vector<MetricSpec> &table, const Outcome &out)
{
    const bool correct = !out.internal_error && out.failed == 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < table.size(); ++i) {
        const MetricSpec &m = table[i];
        const auto it = out.values.find(m.name);
        double v = it == out.values.end() ? 0.0 : it->second;
        if (!std::isfinite(v))
            v = 0.0;
        std::printf("  %-28s %.6g %s%s\n", m.name, v, m.unit,
                    it == out.values.end() ? "  (not reached)" : "");
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        json += std::string(i ? ", " : "") + "\"" + m.name +
                "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--root DIR] [--spans FILE]\n"
                 "       %s --selftest [--root DIR]\n"
                 "       %s --list-metrics\n",
                 argv0, argv0, argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string root = ".";
    std::string spans_path;
    uint64_t seed = kDefaultSeed;
    double seconds = 10;
    int trace = 0;
    bool run_selftest = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value)
            workload = argv[++i];
        else if (arg == "--seed" && has_value)
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (arg == "--seconds" && has_value)
            seconds = std::atof(argv[++i]);
        else if (arg == "--trace" && has_value)
            trace = std::atoi(argv[++i]);
        else if (arg == "--root" && has_value)
            root = argv[++i];
        else if (arg == "--spans" && has_value)
            spans_path = argv[++i];
        else if (arg == "--selftest")
            run_selftest = true;
        else if (arg == "--list-metrics") {
            for (const auto *table : {&kEndToEnd, &kPerLayer})
                for (const MetricSpec &m : *table)
                    std::printf("%s %s %s\n",
                                table == &kEndToEnd ? "end_to_end"
                                                    : "per_layer",
                                m.name, m.unit);
            return 0;
        } else
            return usage(argv[0]);
    }
    if (run_selftest)
        return selftest(root) == 0 ? 0 : 1;

    const auto &names = workload_names();
    if (std::find(names.begin(), names.end(), workload) == names.end() ||
        (trace != 0 && trace != 1) || !(seconds > 0))
        return usage(argv[0]);

    std::printf("perfbench workload %s seed %llu seconds %g trace %d\n",
                workload.c_str(), (unsigned long long)seed, seconds, trace);
    Outcome out;
    std::unique_ptr<SpanRecorder> spans;
    if (trace)
        spans = std::make_unique<SpanRecorder>();
    if (!is_single(workload))
        sweep_run(root, seconds, spans.get(), out);
    else if (trace)
        single_traced(workload, seed, seconds, *spans, out);
    else
        single_untraced(workload, seed, seconds, out);

    if (spans) {
        for (const auto &[name, s] : spans->self_seconds())
            std::printf("self %-22s %.6f s\n", name.c_str(), s);
        if (!spans_path.empty() &&
            !spans->write(spans_path, workload, seed)) {
            std::fprintf(stderr, "cannot write spans to %s\n",
                         spans_path.c_str());
            out.internal_error = true;
        }
    }
    print_result(trace ? kPerLayer : kEndToEnd, out);
    return !out.internal_error && out.failed == 0 ? 0 : 1;
}
