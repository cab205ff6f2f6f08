#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace tacc {

int
hardware_threads()
{
    int n = int(std::thread::hardware_concurrency());
#if defined(__linux__)
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
        const int usable = CPU_COUNT(&allowed);
        if (usable > 0 && (n <= 0 || usable < n))
            n = usable;
    }
#endif
    return n <= 0 ? 1 : n;
}

void
parallel_for(size_t n, int workers, const std::function<void(size_t)> &fn)
{
    if (workers <= 0)
        workers = hardware_threads();
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::exception_ptr error; // guarded by mu; first thrower wins
    auto claim_until_dry = [&] {
        for (;;) {
            const size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard lock(mu);
                if (!error)
                    error = std::current_exception();
            }
        }
    };

    const size_t count = std::min(n, size_t(workers));
    std::vector<std::thread> threads;
    threads.reserve(count);
    try {
        while (threads.size() < count)
            threads.emplace_back(claim_until_dry);
    } catch (...) {
        for (auto &thread : threads)
            thread.join();
        throw;
    }
    for (auto &thread : threads)
        thread.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace tacc
