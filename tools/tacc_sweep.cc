/**
 * @file
 * tacc_sweep — the parallel experiment-sweep driver CLI.
 *
 * Expands a sweep spec (grid over power cap x policy / fault mode /
 * scheduler / placement / preemption mode / load / seed) into
 * independent scenario runs, executes them in parallel, and
 * reports per-run metrics plus determinism digests.
 * The digests are the CI regression gate: any change to scheduling or
 * placement decisions moves a digest, and `--check-goldens` fails.
 *
 *   tacc_sweep [options]
 *     --spec FILE        sweep spec (default tests/goldens/ci_sweep.spec)
 *     --jobs N           concurrent simulations (0 = hardware, default 1)
 *     --out FILE         write the JSON summary
 *     --digests FILE     write the canonical digests text
 *     --goldens FILE     golden digests file
 *                        (default tests/goldens/sweep_digests.txt)
 *     --check-goldens    compare against the golden file; exit 1 on drift
 *     --update-goldens   rewrite the golden file from this run
 *     --list             dry run: print the expanded grid (a summary
 *                        line plus one scenario name per line) and exit
 *     --streaming        force streaming (million-job) retention for
 *                        every run, overriding the spec; digests are
 *                        identical to materialized runs, so the same
 *                        golden files apply
 *     --quiet            suppress the per-run table
 *
 * Golden workflow: after an intentional behaviour change, run
 *   tacc_sweep --update-goldens
 * from the repo root and commit the refreshed digests file.
 */
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "common/hash.h"
#include "common/strings.h"
#include "common/table.h"
#include "driver/runner.h"

using namespace tacc;

namespace {

struct Options {
    std::string spec_path = "tests/goldens/ci_sweep.spec";
    std::string out_path;
    std::string digests_path;
    std::string goldens_path = "tests/goldens/sweep_digests.txt";
    int jobs = 1;
    bool check_goldens = false;
    bool update_goldens = false;
    bool list_only = false;
    bool streaming = false;
    bool quiet = false;
};

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--spec FILE] [--jobs N] [--out FILE] "
                 "[--digests FILE]\n"
                 "       [--goldens FILE] [--check-goldens] "
                 "[--update-goldens] [--list] [--streaming] [--quiet]\n",
                 argv0);
    return 2;
}

bool
write_file(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::trunc);
    out << content;
    return bool(out);
}

void
print_table(const driver::SweepSummary &summary)
{
    TextTable table("sweep");
    table.set_header({"scenario", "done", "meanJCT(h)", "meanWait(m)",
                      "util", "preempt", "wall(ms)", "digest"});
    for (const auto &run : summary.runs) {
        const auto &r = run.result;
        table.add_row({
            run.scenario.name,
            TextTable::num(double(r.completed), 6),
            TextTable::fixed(r.mean_jct_s / 3600.0, 2),
            TextTable::fixed(r.mean_wait_s / 60.0, 1),
            TextTable::pct(r.arrival_window_utilization),
            TextTable::num(double(r.preemptions), 6),
            TextTable::fixed(run.wall_ms, 1),
            Fnv1a::hex(run.digest),
        });
    }
    std::printf("%s", table.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--spec") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            opt.spec_path = v;
        } else if (arg == "--jobs") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            if (!parse_int(v, &opt.jobs) || opt.jobs < 0)
                return usage(argv[0]);
        } else if (arg == "--out") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            opt.out_path = v;
        } else if (arg == "--digests") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            opt.digests_path = v;
        } else if (arg == "--goldens") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            opt.goldens_path = v;
        } else if (arg == "--check-goldens") {
            opt.check_goldens = true;
        } else if (arg == "--update-goldens") {
            opt.update_goldens = true;
        } else if (arg == "--list") {
            opt.list_only = true;
        } else if (arg == "--streaming") {
            opt.streaming = true;
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else {
            return usage(argv[0]);
        }
    }

    auto spec = driver::load_sweep_spec(opt.spec_path);
    if (!spec.is_ok()) {
        std::fprintf(stderr, "tacc_sweep: %s\n",
                     spec.status().str().c_str());
        return 2;
    }
    if (opt.streaming)
        spec.value().base.streaming = true;

    if (opt.list_only) {
        const auto scenarios = driver::expand_sweep(spec.value());
        std::printf("# %zu scenario(s) from %s\n", scenarios.size(),
                    opt.spec_path.c_str());
        for (const auto &scenario : scenarios)
            std::printf("%s\n", scenario.name.c_str());
        return 0;
    }

    const auto summary = driver::run_sweep(spec.value(), opt.jobs);
    if (!opt.quiet)
        print_table(summary);
    std::printf("%zu runs, %d worker(s), %.1f ms wall\n",
                summary.runs.size(), summary.workers, summary.wall_ms);

    if (!opt.out_path.empty() &&
        !write_file(opt.out_path, driver::summary_to_json(summary))) {
        std::fprintf(stderr, "tacc_sweep: cannot write %s\n",
                     opt.out_path.c_str());
        return 2;
    }
    if (!opt.digests_path.empty() &&
        !write_file(opt.digests_path, driver::digests_text(summary))) {
        std::fprintf(stderr, "tacc_sweep: cannot write %s\n",
                     opt.digests_path.c_str());
        return 2;
    }

    if (opt.update_goldens) {
        if (!write_file(opt.goldens_path, driver::digests_text(summary))) {
            std::fprintf(stderr, "tacc_sweep: cannot write %s\n",
                         opt.goldens_path.c_str());
            return 2;
        }
        std::printf("updated goldens: %s\n", opt.goldens_path.c_str());
    }

    if (opt.check_goldens) {
        std::ifstream in(opt.goldens_path);
        if (!in) {
            std::fprintf(stderr,
                         "tacc_sweep: cannot read goldens %s "
                         "(run --update-goldens first)\n",
                         opt.goldens_path.c_str());
            return 2;
        }
        std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
        const auto check = driver::check_digests(summary, golden);
        if (!check.ok) {
            std::fprintf(stderr, "GOLDEN DIGEST MISMATCH\n%s",
                         check.report.c_str());
            return 1;
        }
        std::printf("goldens OK (%zu digests match %s)\n",
                    summary.runs.size(), opt.goldens_path.c_str());
    }
    return 0;
}
