/**
 * @file
 * parallel_for contract tests: every index runs exactly once and its
 * result comes back through its own slot, the first exception reaches
 * the caller, type and payload intact, only after the whole grid ran,
 * small grids start only as many threads as they have indices, and
 * hardware_threads() never exceeds the affinity mask. The sweep and
 * tune determinism suites (SweepDeterminism, ServeSweep, TuneProperty)
 * are the end-to-end oracles; all of these also run under the
 * ThreadSanitizer CI job.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/parallel.h"

namespace tacc {
namespace {

TEST(ParallelFor, RunsEveryIndexExactlyOnce)
{
    constexpr size_t kIndices = 10'000;
    std::vector<std::atomic<int>> counts(kIndices);
    std::vector<size_t> squares(kIndices);
    parallel_for(kIndices, 6, [&](size_t i) {
        counts[i].fetch_add(1);
        squares[i] = i * i;
    });
    for (size_t i = 0; i < kIndices; ++i) {
        ASSERT_EQ(counts[i].load(), 1) << "index " << i;
        ASSERT_EQ(squares[i], i * i) << "index " << i;
    }
}

TEST(ParallelFor, RethrowsFirstExceptionAfterAllIndicesRan)
{
    constexpr size_t kIndices = 500;
    auto throwing = [](std::atomic<int> &ran) {
        return [&ran](size_t i) {
            ran.fetch_add(1);
            if (i % 100 == 37)
                throw std::invalid_argument("index " + std::to_string(i));
        };
    };
    std::atomic<int> ran{0};
    EXPECT_THROW(parallel_for(kIndices, 4, throwing(ran)),
                 std::invalid_argument);
    // Work conservation: a throwing index never cancels the others.
    EXPECT_EQ(ran.load(), int(kIndices));

    // One worker claims indices in order, so the first thrower is 37.
    ran = 0;
    try {
        parallel_for(kIndices, 1, throwing(ran));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "index 37");
    }
    EXPECT_EQ(ran.load(), int(kIndices));
}

TEST(ParallelFor, MoveOnlyResultsLandInTheirIndexedSlots)
{
    // The sweep and tune drivers return results through per-index slots;
    // the caller reads them once parallel_for has returned.
    constexpr size_t kIndices = 256;
    std::vector<std::unique_ptr<std::string>> slots(kIndices);
    parallel_for(kIndices, 4, [&](size_t i) {
        slots[i] = std::make_unique<std::string>("result " +
                                                 std::to_string(i));
    });
    for (size_t i = 0; i < kIndices; ++i) {
        ASSERT_NE(slots[i], nullptr) << "index " << i;
        EXPECT_EQ(*slots[i], "result " + std::to_string(i));
    }
}

TEST(ParallelFor, ExceptionReachesCallerNotWorker)
{
    struct WorkerError : std::runtime_error {
        WorkerError(std::thread::id thrower)
            : std::runtime_error("worker failed"), thrower(thrower)
        {
        }
        std::thread::id thrower;
    };
    const auto caller = std::this_thread::get_id();
    try {
        parallel_for(8, 2, [](size_t i) {
            if (i == 5)
                throw WorkerError(std::this_thread::get_id());
        });
        FAIL() << "expected WorkerError";
    } catch (const WorkerError &e) {
        // Thrown on a worker thread, caught on the caller's, with its
        // dynamic type and payload intact.
        EXPECT_NE(e.thrower, caller);
        EXPECT_STREQ(e.what(), "worker failed");
    }
    // The process is still usable: a later call runs normally.
    std::atomic<int> ran{0};
    parallel_for(8, 2, [&](size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8);
}

TEST(ParallelFor, EdgeSizes)
{
    // Empty grid: fn never runs.
    parallel_for(0, 4, [](size_t) { FAIL(); });
    // Single index; fewer indices than workers.
    std::atomic<int> ran{0};
    parallel_for(1, 4, [&](size_t i) {
        EXPECT_EQ(i, 0u);
        ran.fetch_add(1);
    });
    parallel_for(2, 4, [&](size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 3);
    // One worker: a single thread, which is not the caller's.
    const auto caller = std::this_thread::get_id();
    std::set<std::thread::id> ids;
    parallel_for(16, 1,
                 [&](size_t) { ids.insert(std::this_thread::get_id()); });
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_NE(*ids.begin(), caller);
    // workers <= 0 means hardware_threads().
    ran = 0;
    parallel_for(5, 0, [&](size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 5);
}

TEST(ParallelFor, SmallGridStartsAtMostOneThreadPerIndex)
{
    std::mutex mu;
    std::set<std::thread::id> ids;
#if defined(__linux__)
    // Threads alive in this process, counted from /proc, so a worker
    // that started but never claimed an index is still caught.
    auto live_threads = [] {
        size_t n = 0;
        for ([[maybe_unused]] const auto &entry :
             std::filesystem::directory_iterator("/proc/self/task"))
            ++n;
        return n;
    };
    const size_t before = live_threads();
    size_t peak = 0;
#endif
    parallel_for(3, 8, [&](size_t) {
        std::lock_guard lock(mu);
        ids.insert(std::this_thread::get_id());
#if defined(__linux__)
        peak = std::max(peak, live_threads());
#endif
    });
    EXPECT_LE(ids.size(), 3u);
#if defined(__linux__)
    EXPECT_LE(peak, before + 3);
#endif
}

TEST(ParallelFor, OversubscribedWorkersRunEveryIndex)
{
    // The determinism gate runs --jobs 32 on purpose: far more threads
    // than any CI runner has cores must still cover the grid exactly.
    constexpr size_t kIndices = 20'000;
    std::vector<std::atomic<int>> counts(kIndices);
    parallel_for(kIndices, 32, [&](size_t i) { counts[i].fetch_add(1); });
    for (size_t i = 0; i < kIndices; ++i)
        ASSERT_EQ(counts[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, BackToBackCallsLoseNoWork)
{
    // The tuner starts fresh threads for every evaluation batch.
    std::atomic<int64_t> sum{0};
    constexpr int kRounds = 50;
    constexpr size_t kIndices = 40;
    for (int round = 0; round < kRounds; ++round)
        parallel_for(kIndices, 4,
                     [&](size_t i) { sum += int64_t(i) + 1; });
    EXPECT_EQ(sum.load(), int64_t(kRounds) * kIndices * (kIndices + 1) / 2);
}

TEST(ParallelFor, HardwareThreadsIsPositive)
{
    const int reported = hardware_threads();
    EXPECT_GE(reported, 1);
    EXPECT_EQ(hardware_threads(), reported);
}

TEST(ParallelFor, HardwareThreadsRespectsAffinityMask)
{
    const int reported = hardware_threads();
    EXPECT_GE(reported, 1);
#if defined(__linux__)
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
    const int usable = CPU_COUNT(&allowed);
    ASSERT_GT(usable, 0);
    // Never report more parallelism than the scheduler will actually
    // grant this process.
    EXPECT_LE(reported, usable);
#endif
    const int advertised = int(std::thread::hardware_concurrency());
    if (advertised > 0) {
        EXPECT_LE(reported, advertised);
    }
}

} // namespace
} // namespace tacc
