/**
 * @file
 * The one parallel primitive behind the sweep and tune drivers, whose
 * work is a grid of independent single-threaded scenario runs, each
 * writing only its own indexed result slot (DESIGN.md "Execution
 * backbone").
 */
#pragma once

#include <cstddef>
#include <functional>

namespace tacc {

/** hardware_concurrency clamped to this process's sched_getaffinity
 *  mask (a CI container often advertises more CPUs than it grants),
 *  with a floor of 1. */
int hardware_threads();

/**
 * Runs fn(0) .. fn(n-1), in any order, on min(n, workers) threads
 * (workers <= 0: hardware_threads()) that claim indices from one
 * atomic counter. The first exception is rethrown on the caller after
 * every index ran and every thread joined; a std::system_error from
 * starting a thread is rethrown once the started ones have joined.
 */
void parallel_for(size_t n, int workers,
                  const std::function<void(size_t)> &fn);

} // namespace tacc
