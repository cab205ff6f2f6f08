/**
 * @file
 * Parallel sweep runner.
 *
 * Executes every scenario of an expanded sweep with parallel_for. Each
 * simulation stays strictly single-threaded and owns all of its state
 * (one TaccStack per run), so worker concurrency is pure throughput:
 * results and digests are byte-identical at any worker count, which the
 * CI determinism gate and `bench_t14_sweep` both enforce.
 *
 * Outputs:
 *  - a machine-readable JSON summary (per-run metrics + digests);
 *  - a canonical digests text ("<name> <16-hex>" lines, sorted by
 *    name), the format checked into tests/goldens/ and compared by
 *    `tacc_sweep --check-goldens`.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver/sweep.h"

namespace tacc::driver {

/** One completed grid point. */
struct RunResult {
    SweepScenario scenario;
    core::ScenarioResult result;
    uint64_t digest = 0;
    /** Wall-clock cost of this run (informational; never hashed). */
    double wall_ms = 0;
    /** Submission throughput (submitted / wall seconds; never hashed). */
    double jobs_per_s = 0;
};

/** A finished sweep, runs in canonical expansion order. */
struct SweepSummary {
    std::vector<RunResult> runs;
    int workers = 1;
    double wall_ms = 0;
    /** Process-wide peak RSS sampled when the sweep finished (bytes;
     *  0 where unsupported). Informational; never hashed. */
    size_t peak_rss_bytes = 0;
};

/**
 * Runs the full grid with `workers` concurrent simulations (<= 0 uses
 * the hardware concurrency). Run order across workers is arbitrary;
 * the returned summary is always in canonical expansion order.
 */
SweepSummary run_sweep(const SweepSpec &spec, int workers);

/** Canonical golden-file rendering: "<name> <digest>" sorted by name. */
std::string digests_text(const SweepSummary &summary);

/** JSON summary (stable key order, one object per run). */
std::string summary_to_json(const SweepSummary &summary);

/** Outcome of a golden comparison. */
struct GoldenCheck {
    bool ok = false;
    /** Human-readable mismatch report (empty when ok). */
    std::string report;
};

/**
 * Compares a summary against golden digest text (the digests_text
 * format; blank lines and '#' comments ignored). Missing runs, extra
 * runs, and digest mismatches all fail.
 */
GoldenCheck check_digests(const SweepSummary &summary,
                          const std::string &golden_text);

} // namespace tacc::driver
