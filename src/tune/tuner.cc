#include "tune/tuner.h"

#include <chrono>
#include <fstream>
#include <map>
#include <sstream>

#include "common/hash.h"
#include "common/kv.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "core/config_io.h"
#include "driver/digest.h"
#include "driver/sweep.h"
#include "sched/placement.h"
#include "sched/schedulers.h"

namespace tacc::tune {

namespace {

/** One key of the tune dialect; the scenario-base keys it shares with
 *  the sweep dialect go to driver::apply_scenario_key. */
Status
apply_tune_key(const KvEntry &e, TuneSpec &spec, double &power_cap_w,
               std::string &power_policy)
{
    const std::string &key = e.key;
    OptimizerConfig &search = spec.search;
    ObjectiveWeights &weights = spec.weights;
    if (key == "optimizer") {
        if (e.value != "sa" && e.value != "genetic")
            return Status::invalid_argument("unknown optimizer: " + e.value +
                                            " (want sa or genetic)");
        spec.optimizer = e.value;
        return Status::ok();
    }
    if (key == "budget") {
        return e.read(&spec.budget,
                      [](int v) { return v > 0 && v <= 100'000; });
    }
    if (key == "seed")
        return e.read(&search.seed);
    if (key == "params") {
        std::vector<std::string> names;
        if (auto s = e.read_list(&names); !s.is_ok())
            return s;
        auto space = ParamSpace::subset(names);
        if (space.is_ok())
            spec.space = std::move(space).value();
        return space.status();
    }
    if (key == "sa_chains")
        return e.read(&search.chains, [](int v) { return v > 0 && v <= 64; });
    if (key == "sa_init_temp")
        return e.read(&search.init_temp, positive);
    if (key == "sa_cooling")
        return e.read(&search.cooling, positive_fraction);
    if (key == "sa_step")
        return e.read(&search.step_frac, positive_fraction);
    if (key == "ga_population") {
        return e.read(&search.population,
                      [](int v) { return v >= 2 && v <= 256; });
    }
    if (key == "ga_elites")
        return e.read(&search.elites, [](int v) { return v >= 0 && v <= 64; });
    if (key == "ga_tournament") {
        return e.read(&search.tournament,
                      [](int v) { return v > 0 && v <= 1'000'000'000; });
    }
    if (key == "ga_mutation")
        return e.read(&search.mutation, fraction);
    if (key == "w_mean_jct")
        return e.read(&weights.w_mean_jct, non_negative);
    if (key == "w_p99_jct")
        return e.read(&weights.w_p99_jct, non_negative);
    if (key == "w_fairness")
        return e.read(&weights.w_fairness, non_negative);
    if (key == "w_energy")
        return e.read(&weights.w_energy, non_negative);
    if (key == "w_slo")
        return e.read(&weights.w_slo, non_negative);
    if (key == "jct_ref_s")
        return e.read(&weights.jct_ref_s, positive);
    if (key == "energy_ref_kwh")
        return e.read(&weights.energy_ref_kwh, positive);
    if (key == "mixes") {
        std::vector<std::string> mixes;
        if (auto s = e.read_list(&mixes); !s.is_ok())
            return s;
        core::ScenarioConfig scratch;
        for (const auto &mix : mixes) {
            if (auto s = apply_mix(mix, &scratch); !s.is_ok())
                return s;
        }
        spec.mixes = std::move(mixes);
        return Status::ok();
    }
    if (key == "eval_seeds")
        return e.read_list(&spec.eval_seeds);
    if (key == "scheduler") {
        if (!sched::make_scheduler(e.value, {}))
            return Status::invalid_argument("unknown scheduler: " + e.value);
        spec.base.stack.scheduler = e.value;
        return Status::ok();
    }
    if (key == "placement") {
        if (!sched::make_placement_policy(e.value))
            return Status::invalid_argument("unknown placement: " + e.value);
        spec.base.stack.placement = e.value;
        return Status::ok();
    }
    if (key == "preempt_mode")
        return driver::apply_preempt_mode(e.value, &spec.base.stack);
    if (key == "fault_mode")
        return driver::apply_fault_mode(e.value, &spec.base.stack);
    if (key == "power_cap_w")
        return e.read(&power_cap_w, non_negative);
    if (key == "power_policy") {
        if (e.value != "admission" && e.value != "dvfs")
            return Status::invalid_argument("unknown power policy: " +
                                            e.value);
        power_policy = e.value;
        return Status::ok();
    }
    return driver::apply_scenario_key(e, &spec.base);
}

double
elapsed_ms(std::chrono::steady_clock::time_point since)
{
    const auto d = std::chrono::steady_clock::now() - since;
    return std::chrono::duration<double, std::milli>(d).count();
}

std::string
json_values(const ParamSpace &space, const std::vector<double> &values)
{
    std::string out = "{";
    for (size_t i = 0; i < space.size() && i < values.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"" + space.dims()[i].name + "\": " +
               strfmt("%.9g", values[i]);
    }
    out += "}";
    return out;
}

std::string
json_string_list(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"" + items[i] + "\"";
    }
    out += "]";
    return out;
}

} // namespace

std::vector<std::string>
mix_names()
{
    return {"mixed",       "train-heavy", "infer-heavy",
            "infer-fault", "fault-heavy", "deadline-heavy"};
}

Status
apply_mix(const std::string &mix, core::ScenarioConfig *config)
{
    workload::TraceConfig &trace = config->trace;
    if (mix == "mixed")
        return Status::ok();
    if (mix == "train-heavy") {
        trace.frac_interactive = 0.08;
        trace.frac_best_effort = 0.10;
        trace.batch_duration_mu = 8.4; // median ~ e^8.4: longer training
        return Status::ok();
    }
    if (mix == "infer-heavy") {
        trace.frac_interactive = 0.55;
        trace.frac_best_effort = 0.05;
        trace.interactive_duration_mu = 5.5;
        trace.mean_interarrival_s /= 1.3;
        return Status::ok();
    }
    if (mix == "infer-fault") {
        trace.frac_interactive = 0.55;
        trace.frac_best_effort = 0.05;
        trace.interactive_duration_mu = 5.5;
        trace.mean_interarrival_s /= 1.3;
        return driver::apply_fault_mode("storm", &config->stack);
    }
    if (mix == "fault-heavy") {
        trace.mean_interarrival_s /= 1.1;
        return driver::apply_fault_mode("storm", &config->stack);
    }
    if (mix == "deadline-heavy") {
        trace.frac_deadline = 0.35;
        trace.frac_interactive = 0.20;
        return Status::ok();
    }
    return Status::invalid_argument("unknown mix: " + mix);
}

StatusOr<TuneSpec>
parse_tune_spec(const std::string &text)
{
    TuneSpec spec;
    spec.base.stack.emit_monitor_logs = false;
    double power_cap_w = 0;
    std::string power_policy = "admission";

    if (auto s = read_kv(text, [&](const KvEntry &e) {
            return apply_tune_key(e, spec, power_cap_w, power_policy);
        });
        !s.is_ok())
        return s;
    if (auto s = driver::apply_power_mode(power_cap_w, power_policy,
                                          &spec.base.stack);
        !s.is_ok())
        return s;
    if (auto s = validate_weights(spec.weights); !s.is_ok())
        return s;
    // Search-knob validation happens in the factory; run it once here so
    // a bad spec fails at load time, not mid-run.
    OptimizerConfig probe = spec.search;
    probe.start = spec.space.extract(spec.base.stack);
    if (auto opt = make_optimizer(spec.optimizer, spec.space, probe);
        !opt.is_ok())
        return opt.status();
    return spec;
}

StatusOr<TuneSpec>
load_tune_spec(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::not_found("cannot read tune spec: " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return parse_tune_spec(text.str());
}

namespace {

/** A candidate's score against every (mix, seed) eval point. */
struct EvalOutcome {
    double objective = 0;
    uint64_t digest = 0;
    std::vector<double> per_eval;
};

} // namespace

StatusOr<TuneResult>
run_tune(const TuneSpec &spec, int workers)
{
    if (workers <= 0)
        workers = hardware_threads();
    if (auto s = validate_weights(spec.weights); !s.is_ok())
        return s;

    // The evaluation grid: mixes x seeds, listed order (canonical).
    std::vector<core::ScenarioConfig> evals;
    TuneResult result;
    result.workers = workers;
    for (const auto &mix : spec.mixes) {
        for (uint64_t seed : spec.eval_seeds) {
            core::ScenarioConfig config = spec.base;
            if (auto s = apply_mix(mix, &config); !s.is_ok())
                return s;
            config.trace.seed = seed;
            config.stack.seed = seed;
            evals.push_back(std::move(config));
            result.eval_names.push_back(mix + "/s" +
                                        std::to_string(seed));
        }
    }
    if (evals.empty())
        return Status::invalid_argument("no evaluation points (need >= 1 "
                                        "mix and eval seed)");

    const auto tune_start = std::chrono::steady_clock::now();
    std::map<std::vector<double>, EvalOutcome> cache;

    // Scores a batch of candidates. All simulation fan-out lives here;
    // results land in indexed slots, so outcomes come back in batch
    // order no matter which worker finishes first.
    auto evaluate = [&](const std::vector<std::vector<double>> &batch,
                        std::vector<bool> *hit) {
        std::vector<const std::vector<double> *> fresh;
        for (const auto &values : batch) {
            const bool cached = cache.count(values) > 0;
            if (hit)
                hit->push_back(cached);
            if (!cached) {
                // Reserve the cache slot immediately so a duplicate
                // later in the same batch is not simulated twice.
                cache.emplace(values, EvalOutcome{});
                fresh.push_back(&values);
            }
        }
        std::vector<core::ScenarioResult> runs(fresh.size() *
                                               evals.size());
        // (candidate x eval point) runs land in indexed slots, so
        // thread scheduling order cannot leak into scores or digests
        // (the determinism contract).
        const size_t per_candidate = evals.size();
        parallel_for(runs.size(), workers, [&](size_t index) {
            // One arena per worker thread (see run_sweep).
            thread_local core::StackArena arena;
            const size_t f = index / per_candidate;
            const size_t e = index % per_candidate;
            core::ScenarioConfig config = evals[e];
            spec.space.apply(*fresh[f], &config.stack);
            runs[index] = core::run_scenario(config, &arena);
        });
        result.scenario_runs += runs.size();
        for (size_t f = 0; f < fresh.size(); ++f) {
            EvalOutcome out;
            Fnv1a fold;
            double sum = 0;
            for (size_t e = 0; e < evals.size(); ++e) {
                const core::ScenarioResult &r =
                    runs[f * evals.size() + e];
                const double obj =
                    scalarize(r.objective_inputs(), spec.weights);
                out.per_eval.push_back(obj);
                sum += obj;
                fold.u64(driver::scenario_digest(r));
            }
            out.objective = sum / double(evals.size());
            out.digest = fold.value();
            cache[*fresh[f]] = std::move(out);
        }
    };

    // Baseline: the spec's own configuration, outside the budget. Also
    // warms the cache, so SA chain 0 / GA individual 0 re-score it for
    // free.
    result.default_values =
        spec.space.clamp(spec.space.extract(spec.base.stack));
    evaluate({result.default_values}, nullptr);
    {
        const EvalOutcome &base = cache.at(result.default_values);
        result.default_objective = base.objective;
        result.default_digest = base.digest;
        result.default_per_eval = base.per_eval;
    }
    result.best_values = result.default_values;
    result.best_objective = result.default_objective;
    result.best_digest = result.default_digest;
    result.best_per_eval = result.default_per_eval;
    result.best_step = -1;

    OptimizerConfig search = spec.search;
    search.start = result.default_values;
    auto opt_or = make_optimizer(spec.optimizer, spec.space, search);
    if (!opt_or.is_ok())
        return opt_or.status();
    std::unique_ptr<Optimizer> opt = std::move(opt_or.value());

    while (int(result.trajectory.size()) < spec.budget) {
        const size_t remaining =
            size_t(spec.budget) - result.trajectory.size();
        const std::vector<Candidate> batch = opt->propose(remaining);
        if (batch.empty())
            break;
        std::vector<std::vector<double>> values;
        values.reserve(batch.size());
        for (const Candidate &cand : batch)
            values.push_back(cand.values);
        std::vector<bool> hits;
        evaluate(values, &hits);

        std::vector<double> objectives;
        objectives.reserve(batch.size());
        for (const auto &v : values)
            objectives.push_back(cache.at(v).objective);
        std::vector<bool> accepted;
        opt->observe(objectives, &accepted);

        for (size_t i = 0; i < batch.size(); ++i) {
            const EvalOutcome &out = cache.at(values[i]);
            TuneStep step;
            step.step = int(result.trajectory.size());
            step.chain = batch[i].chain;
            step.values = values[i];
            step.objective = out.objective;
            step.accepted = i < accepted.size() && accepted[i];
            step.cache_hit = i < hits.size() && hits[i];
            step.digest = out.digest;
            if (out.objective < result.best_objective) {
                step.is_best = true;
                result.best_values = values[i];
                result.best_objective = out.objective;
                result.best_digest = out.digest;
                result.best_per_eval = out.per_eval;
                result.best_step = step.step;
            }
            if (step.cache_hit)
                ++result.cache_hits;
            result.trajectory.push_back(std::move(step));
        }
    }

    result.wall_ms = elapsed_ms(tune_start);
    return result;
}

std::string
trajectory_to_json(const TuneSpec &spec, const TuneResult &result)
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"optimizer\": \"" << spec.optimizer << "\",\n";
    out << "  \"budget\": " << spec.budget << ",\n";
    out << "  \"seed\": " << spec.search.seed << ",\n";
    std::vector<std::string> params;
    for (const ParamDim &dim : spec.space.dims())
        params.push_back(dim.name);
    out << "  \"params\": " << json_string_list(params) << ",\n";
    out << "  \"mixes\": " << json_string_list(spec.mixes) << ",\n";
    out << "  \"evals\": " << json_string_list(result.eval_names)
        << ",\n";
    out << "  \"weights\": \"" << weights_to_text(spec.weights)
        << "\",\n";
    out << "  \"scenario_runs\": " << result.scenario_runs << ",\n";
    out << "  \"cache_hits\": " << result.cache_hits << ",\n";
    out << strfmt("  \"default\": {\"objective\": %.6f, \"digest\": "
                  "\"%s\", \"values\": ",
                  result.default_objective,
                  Fnv1a::hex(result.default_digest).c_str())
        << json_values(spec.space, result.default_values) << "},\n";
    out << strfmt("  \"best\": {\"step\": %d, \"objective\": %.6f, "
                  "\"digest\": \"%s\", \"values\": ",
                  result.best_step, result.best_objective,
                  Fnv1a::hex(result.best_digest).c_str())
        << json_values(spec.space, result.best_values) << "},\n";
    out << "  \"trajectory\": [\n";
    for (size_t i = 0; i < result.trajectory.size(); ++i) {
        const TuneStep &step = result.trajectory[i];
        out << strfmt("    {\"step\": %d, \"chain\": %d, \"objective\": "
                      "%.6f, \"accepted\": %s, \"cache_hit\": %s, "
                      "\"is_best\": %s, \"digest\": \"%s\", \"values\": ",
                      step.step, step.chain, step.objective,
                      step.accepted ? "true" : "false",
                      step.cache_hit ? "true" : "false",
                      step.is_best ? "true" : "false",
                      Fnv1a::hex(step.digest).c_str())
            << json_values(spec.space, step.values) << "}"
            << (i + 1 < result.trajectory.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    return out.str();
}

std::string
best_config_text(const TuneSpec &spec, const TuneResult &result)
{
    core::StackConfig best = spec.base.stack;
    spec.space.apply(result.best_values, &best);

    std::string out = "# tacc_tune preset\n";
    out += strfmt("# optimizer: %s  budget: %d  seed: %llu\n",
                  spec.optimizer.c_str(), spec.budget,
                  (unsigned long long)spec.search.seed);
    std::string mixes;
    for (const auto &mix : spec.mixes)
        mixes += (mixes.empty() ? "" : ",") + mix;
    std::string seeds;
    for (uint64_t seed : spec.eval_seeds)
        seeds += (seeds.empty() ? "" : ",") + std::to_string(seed);
    out += "# mixes: " + mixes + "  eval_seeds: " + seeds + "\n";
    const double gain =
        result.default_objective > 0
            ? (result.default_objective - result.best_objective) /
                  result.default_objective * 100.0
            : 0.0;
    out += strfmt("# objective: %.6f (default %.6f, -%.2f%%)\n",
                  result.best_objective, result.default_objective, gain);
    out += "# tuned: " + spec.space.describe(result.best_values) + "\n";
    out += core::stack_config_to_text(best);
    return out;
}

} // namespace tacc::tune
