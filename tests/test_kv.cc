#include "common/kv.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/config_io.h"
#include "driver/sweep.h"
#include "tune/tuner.h"
#include "workload/task_spec.h"

namespace tacc {
namespace {

/** Reads `text`, collecting every entry as "key=value". */
Status
collect(const std::string &text, std::vector<std::string> *out)
{
    return read_kv(text, [out](const KvEntry &e) {
        out->push_back(e.key + "=" + e.value);
        return Status::ok();
    });
}

TEST(KvReader, SkipsBlanksAndCommentsAndSplitsOnFirstColon)
{
    std::vector<std::string> seen;
    ASSERT_TRUE(collect("# header\n\n  a : 1 \n\t\nurl: http://x:8\n"
                        "  # indented comment\nempty:\n",
                        &seen)
                    .is_ok());
    EXPECT_EQ(seen, (std::vector<std::string>{"a=1", "url=http://x:8",
                                              "empty="}));
}

TEST(KvReader, MalformedLineNamesItsLine)
{
    std::vector<std::string> seen;
    const Status s = collect("a: 1\n\n# c\nno colon here\nb: 2\n", &seen);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(s.message(), "line 4: malformed line: no colon here");
    EXPECT_EQ(seen, std::vector<std::string>{"a=1"}); // stops at the error
}

TEST(KvReader, HandlerErrorKeepsItsCodeAndGainsTheLine)
{
    const Status s = read_kv("a: 1\nb: 2\n", [](const KvEntry &e) {
        return e.key == "b" ? Status::not_found("no b") : Status::ok();
    });
    EXPECT_EQ(s.code(), StatusCode::kNotFound);
    EXPECT_EQ(s.message(), "line 2: no b");
}

TEST(KvEntry, NumbersAreStrict)
{
    auto entry = [](std::string value) {
        return KvEntry{"k", std::move(value)};
    };
    double d = 7;
    EXPECT_TRUE(entry("1.5e3").read(&d).is_ok());
    EXPECT_EQ(d, 1500.0);
    EXPECT_TRUE(entry("1e+06").read(&d).is_ok()); // %g output reads back
    EXPECT_EQ(d, 1e6);
    for (const char *bad : {"", "nan", "inf", "-inf", "1e999", "1.5x",
                            "0x10", "+1", "1 2"}) {
        EXPECT_FALSE(entry(bad).read(&d).is_ok()) << bad;
    }
    EXPECT_EQ(d, 1e6); // untouched on failure

    int i = 3;
    EXPECT_TRUE(entry("-42").read(&i).is_ok());
    EXPECT_EQ(i, -42);
    for (const char *bad : {"4294967304", "1.0", "8x", "+1", ""})
        EXPECT_FALSE(entry(bad).read(&i).is_ok()) << bad;
    uint64_t u = 5;
    EXPECT_TRUE(entry("18446744073709551615").read(&u).is_ok());
    EXPECT_FALSE(entry("-1").read(&u).is_ok());
    EXPECT_FALSE(entry("18446744073709551616").read(&u).is_ok());

    bool b = false;
    EXPECT_TRUE(entry("true").read(&b).is_ok());
    EXPECT_TRUE(b);
    EXPECT_FALSE(entry("yes").read(&b).is_ok());

    const Status bounded = entry("0").read(&d, positive);
    EXPECT_EQ(bounded.message(), "bad value for k: 0");
}

TEST(KvEntry, ListsRejectEmptyItemsAndNameTheBadOne)
{
    std::vector<double> loads = {9};
    EXPECT_TRUE((KvEntry{"loads", "1, 1.4 ,2"}).read_list(&loads).is_ok());
    EXPECT_EQ(loads, (std::vector<double>{1, 1.4, 2}));
    for (const char *bad : {"", "1,,2", "1,", ",1"})
        EXPECT_FALSE((KvEntry{"loads", bad}).read_list(&loads).is_ok()) << bad;
    EXPECT_EQ((KvEntry{"loads", "1,nan"}).read_list(&loads).message(),
              "bad value for loads: nan");
    EXPECT_EQ(loads, (std::vector<double>{1, 1.4, 2}));
}

/**
 * Inputs the four hand-rolled parsers used to accept, crash on, or
 * reject without a line number. Every one must now be a non-OK Status
 * whose message starts with the offending line.
 */
struct BadInput {
    const char *name;
    const char *dialect; ///< "task", "deploy", "sweep" or "tune"
    std::string text;
    int line;
};

Status
parse_as(const std::string &dialect, const std::string &text)
{
    if (dialect == "task")
        return workload::TaskSpec::parse(text).status();
    if (dialect == "deploy")
        return core::parse_stack_config(text).status();
    if (dialect == "sweep")
        return driver::parse_sweep_spec(text).status();
    return tune::parse_tune_spec(text).status();
}

std::string
task_text()
{
    workload::TaskSpec spec;
    spec.name = "t";
    spec.user = "u";
    spec.group = "g";
    return spec.to_text(); // 19 lines without artifacts
}

TEST(KvRegression, EveryBadInputNamesItsLine)
{
    const std::vector<BadInput> table = {
        // Accepted, then aborted in the trace generator.
        {"sweep_loads_nan", "sweep", "jobs: 10\nloads: nan\n", 2},
        // Silently accepted.
        {"sweep_frac_nan", "sweep", "frac_interactive: nan\n", 1},
        // Wrapped to seed 18446744073709551615.
        {"sweep_seed_negative", "sweep", "# c\n\nseeds: 1,-1\n", 3},
        // Silently became 8 GPUs.
        {"task_gpus_wrap", "task", task_text() + "gpus: 4294967304\n", 20},
        // Wrapped to 2^64-1 bytes and exhausted memory at submit.
        {"task_artifact_negative", "task",
         task_text() + "artifact: data,-1,1\n", 20},
        {"task_malformed", "task", "task: t\nno colon\n", 2},
        {"task_unknown", "task", "task: t\nwarp: 9\n", 2},
        {"deploy_malformed", "deploy", "racks: 2\nno colon\n", 2},
        {"deploy_unknown", "deploy", "racks: 2\n\nwarp: 9\n", 3},
        {"deploy_gpu_junk", "deploy", "gpu: A100,312x,80\n", 1},
        {"deploy_quota_junk", "deploy", "quota: g,5x\n", 1},
        {"sweep_malformed", "sweep", "jobs: 10\nno colon\n", 2},
        {"sweep_unknown", "sweep", "jobs: 10\nwarp: 9\n", 2},
        {"tune_malformed", "tune", "optimizer: sa\nno colon\n", 2},
        {"tune_unknown", "tune", "optimizer: sa\nwarp: 9\n", 2},
        {"tune_eval_seed_negative", "tune", "eval_seeds: -1\n", 1},
        {"tune_frac_inf", "tune", "frac_deadline: inf\n", 1},
    };
    for (const auto &c : table) {
        const Status s = parse_as(c.dialect, c.text);
        ASSERT_FALSE(s.is_ok()) << c.name;
        const std::string prefix = "line " + std::to_string(c.line) + ": ";
        EXPECT_EQ(s.message().rfind(prefix, 0), 0u)
            << c.name << ": " << s.str();
    }
}

} // namespace
} // namespace tacc
