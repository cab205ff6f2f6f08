/**
 * @file
 * The benchmark's workloads: three single-scenario shapes driven through
 * TaccStack, and a fixed subset of the four CI golden sweep grids driven
 * through the sweep driver. Why each shape was chosen is recorded in
 * BENCHMARK.json and perfbench/README.md.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/scenario.h"
#include "driver/sweep.h"

namespace perfbench {

/** The seed whose results are pinned in expected_result(). */
inline constexpr uint64_t kDefaultSeed = 42;

/** Names of every workload. BENCHMARK.json gates all but backlog,
 *  whose wall time slows by up to 1.6x while the shared host is busy. */
const std::vector<std::string> &workload_names();

/** True for the single-scenario workloads (everything but the sweep). */
bool is_single(const std::string &name);

/**
 * The scenario of a single-scenario workload. t17_stream draws a fresh
 * trace from the seed. campus_ops and backlog replay the reference
 * campus trace (trace seed kDefaultSeed) whatever the seed: their cost
 * follows the simulated makespan and queue, which a single heavy-tailed
 * job or a shifted arrival changes, so across trace seeds their wall
 * time varies up to 30x and even one second of arrival jitter moves it
 * by 10-20%, more than any bound a regression could be judged by.
 */
tacc::core::ScenarioConfig single_config(const std::string &name,
                                         uint64_t seed);

/** Pinned outcome of a single-scenario workload at kDefaultSeed. */
struct Expected {
    uint64_t digest = 0;
    uint64_t events = 0;
    size_t completed = 0;
};

/** The pinned outcome: for every seed on the fixed-trace workloads,
 *  for kDefaultSeed only on t17_stream. */
std::optional<Expected> expected_result(const std::string &name,
                                        uint64_t seed);

/** One golden grid, cut down to the benchmark's fixed subset. */
struct GoldenGrid {
    std::string name;          ///< base, power, serve or predict
    std::string spec_path;     ///< relative to the repo root
    std::string golden_path;   ///< relative to the repo root
};

const std::vector<GoldenGrid> &golden_grids();

/** Loads a grid's checked-in spec and restricts its axes to the subset
 *  (seed 1 everywhere; load 1.0 on power and predict; backfill-easy
 *  only on predict). The subset keeps canonical expansion order and
 *  the full grid's scenario names. */
tacc::StatusOr<tacc::driver::SweepSpec> load_subset(const std::string &root,
                                                    const GoldenGrid &grid);

/** Worker count of the sweep workload. */
inline constexpr int kSweepWorkers = 2;

} // namespace perfbench
