/**
 * @file
 * T14 — Parallel sweep scaling and determinism (the driver subsystem).
 *
 * Runs the same 24-scenario policy grid serially (1 worker) and in
 * parallel (min(8, hardware) workers), interleaved over several rounds,
 * and reports the per-round wall-clock ratio — the controlled comparison
 * on a shared machine whose absolute throughput drifts between rounds.
 * After every run the digests are byte-compared: parallelism must be
 * pure throughput, never a behaviour change. Any digest drift exits
 * non-zero, so the bench doubles as a stress test of the determinism
 * contract.
 *
 * TACC_BENCH_JOBS caps the per-scenario trace length (CI smoke);
 * TACC_BENCH_ROUNDS overrides the round count (default 3).
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "driver/runner.h"

using namespace tacc;

namespace {

driver::SweepSpec
scaling_spec()
{
    driver::SweepSpec spec;
    spec.base.stack = bench::default_stack();
    spec.base.trace = bench::default_trace(120, 42);
    spec.schedulers = {"fairshare", "fifo-skip", "backfill-easy"};
    spec.placements = {"topology", "pack"};
    spec.preempt_modes = {"graceful"};
    spec.loads = {1.0, 1.4};
    spec.seeds = {1, 2};
    return spec;
}

int
rounds_from_env()
{
    if (const char *env = std::getenv("TACC_BENCH_ROUNDS")) {
        const int n = std::atoi(env);
        if (n > 0 && n <= 100)
            return n;
    }
    return 3;
}

} // namespace

int
main()
{
    const driver::SweepSpec spec = scaling_spec();
    const int parallel_workers = std::min(8, tacc::hardware_threads());
    const int rounds = rounds_from_env();

    std::printf("T14: parallel sweep — %zu scenarios x %d jobs, "
                "1 vs %d workers, %d interleaved rounds\n",
                spec.grid_size(), spec.base.trace.num_jobs,
                parallel_workers, rounds);

    TextTable table("T14: sweep scaling (interleaved rounds)");
    table.set_header({"round", "serial(s)", "parallel(s)", "speedup",
                      "digests"});

    std::vector<double> ratios;
    bool all_identical = true;
    std::string reference_digests;
    for (int round = 1; round <= rounds; ++round) {
        const auto serial = driver::run_sweep(spec, 1);
        const auto parallel = driver::run_sweep(spec, parallel_workers);

        const std::string serial_text = driver::digests_text(serial);
        const std::string parallel_text = driver::digests_text(parallel);
        const bool identical = serial_text == parallel_text;
        all_identical = all_identical && identical;
        if (reference_digests.empty())
            reference_digests = serial_text;
        // Round-to-round drift would be nondeterminism even at 1 worker.
        all_identical =
            all_identical && serial_text == reference_digests;

        const double ratio = parallel.wall_ms > 0
                                 ? serial.wall_ms / parallel.wall_ms
                                 : 0.0;
        ratios.push_back(ratio);
        table.add_row({std::to_string(round),
                       TextTable::fixed(serial.wall_ms / 1000.0, 2),
                       TextTable::fixed(parallel.wall_ms / 1000.0, 2),
                       TextTable::fixed(ratio, 2),
                       identical ? "identical" : "DRIFT"});
    }

    std::sort(ratios.begin(), ratios.end());
    const double median = ratios[ratios.size() / 2];
    std::fputs(table.str().c_str(), stdout);
    std::printf("median speedup %.2fx at %d workers "
                "(hardware_concurrency %d); digests %s\n",
                median, parallel_workers, tacc::hardware_threads(),
                all_identical ? "identical in every round"
                              : "DRIFTED — determinism violation");
    return all_identical ? 0 : 1;
}
