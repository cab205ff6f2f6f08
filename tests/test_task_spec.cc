/**
 * @file
 * Unit tests for the Task Schema Layer: validation and the canonical text
 * form (the reproducibility guarantee: parse(to_text(s)) == s).
 */
#include <gtest/gtest.h>

#include <ostream>

#include "workload/task_spec.h"

namespace tacc::workload {
namespace {

TaskSpec
valid_spec()
{
    TaskSpec spec;
    spec.name = "train-1";
    spec.user = "alice";
    spec.group = "cv-lab";
    spec.gpus = 8;
    spec.qos = QosClass::kBatch;
    spec.model = "resnet50";
    spec.iterations = 5000;
    spec.artifacts = {{"alice/code", 1'000'000, 2},
                      {"cv-lab/dataset", 5'000'000'000, 1}};
    return spec;
}

TEST(TaskSpec, ValidSpecPasses)
{
    EXPECT_TRUE(valid_spec().validate().is_ok());
}

struct InvalidCase {
    const char *label;
    void (*mutate)(TaskSpec &);
};

// Without a printer gtest lists each case as a dump of its two pointers,
// so the listed test names would change whenever the binary's layout does.
void
PrintTo(const InvalidCase &c, std::ostream *os)
{
    *os << c.label;
}

class TaskSpecValidation : public ::testing::TestWithParam<InvalidCase>
{
};

TEST_P(TaskSpecValidation, RejectsInvalidField)
{
    TaskSpec spec = valid_spec();
    GetParam().mutate(spec);
    EXPECT_FALSE(spec.validate().is_ok()) << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    AllFields, TaskSpecValidation,
    ::testing::Values(
        InvalidCase{"empty_name", [](TaskSpec &s) { s.name.clear(); }},
        InvalidCase{"empty_user", [](TaskSpec &s) { s.user.clear(); }},
        InvalidCase{"empty_group", [](TaskSpec &s) { s.group.clear(); }},
        InvalidCase{"zero_gpus", [](TaskSpec &s) { s.gpus = 0; }},
        InvalidCase{"negative_gpus", [](TaskSpec &s) { s.gpus = -1; }},
        InvalidCase{"zero_node_limit",
                    [](TaskSpec &s) { s.gpus_per_node_limit = 0; }},
        InvalidCase{"negative_cpu",
                    [](TaskSpec &s) { s.cpu_cores_per_gpu = -1; }},
        InvalidCase{"negative_mem",
                    [](TaskSpec &s) { s.memory_gb_per_gpu = -1; }},
        InvalidCase{"zero_time_limit",
                    [](TaskSpec &s) { s.time_limit = Duration::zero(); }},
        InvalidCase{"empty_model", [](TaskSpec &s) { s.model.clear(); }},
        InvalidCase{"zero_iterations",
                    [](TaskSpec &s) { s.iterations = 0; }},
        InvalidCase{"artifact_empty_name",
                    [](TaskSpec &s) { s.artifacts[0].name.clear(); }},
        InvalidCase{"artifact_zero_bytes",
                    [](TaskSpec &s) { s.artifacts[0].bytes = 0; }},
        InvalidCase{"elastic_only_min",
                    [](TaskSpec &s) { s.min_gpus = 2; }},
        InvalidCase{"elastic_only_max",
                    [](TaskSpec &s) { s.max_gpus = 16; }},
        InvalidCase{"elastic_inverted",
                    [](TaskSpec &s) {
                        s.min_gpus = 16;
                        s.max_gpus = 2;
                    }},
        InvalidCase{"elastic_outside_bounds",
                    [](TaskSpec &s) {
                        s.min_gpus = 16;
                        s.max_gpus = 32; // gpus=8 below min
                    }}),
    [](const ::testing::TestParamInfo<InvalidCase> &info) {
        return info.param.label;
    });

TEST(TaskSpec, ElasticBoundsAccepted)
{
    TaskSpec spec = valid_spec();
    spec.min_gpus = 2;
    spec.max_gpus = 16;
    EXPECT_TRUE(spec.validate().is_ok());
    EXPECT_TRUE(spec.is_elastic());
    EXPECT_FALSE(valid_spec().is_elastic());
}

TEST(TaskSpec, TextRoundTripExact)
{
    TaskSpec spec = valid_spec();
    spec.qos = QosClass::kInteractive;
    spec.preemptible = false;
    spec.runtime = RuntimePref::kContainer;
    spec.transport = TransportPref::kRdma;
    spec.min_gpus = 4;
    spec.max_gpus = 16;
    spec.time_limit = Duration::seconds(7200);

    auto parsed = TaskSpec::parse(spec.to_text());
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().str();
    EXPECT_EQ(parsed.value(), spec);
}

TEST(TaskSpec, RoundTripDefaults)
{
    const TaskSpec spec = valid_spec();
    auto parsed = TaskSpec::parse(spec.to_text());
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed.value(), spec);
}

TEST(TaskSpec, ParseSkipsCommentsAndBlankLines)
{
    std::string text = valid_spec().to_text();
    text = "# a comment\n\n" + text + "\n# trailing\n";
    auto parsed = TaskSpec::parse(text);
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed.value(), valid_spec());
}

TEST(TaskSpec, ParseRejectsUnknownKey)
{
    auto parsed = TaskSpec::parse(valid_spec().to_text() + "bogus: 1\n");
    EXPECT_FALSE(parsed.is_ok());
}

TEST(TaskSpec, ParseRejectsMalformedLines)
{
    EXPECT_FALSE(TaskSpec::parse("no colon here\n").is_ok());
    EXPECT_FALSE(
        TaskSpec::parse(valid_spec().to_text() + "gpus: soup\n").is_ok());
    EXPECT_FALSE(
        TaskSpec::parse(valid_spec().to_text() + "gpus: 8x\n").is_ok());
    EXPECT_FALSE(
        TaskSpec::parse(valid_spec().to_text() + "artifact: broken\n")
            .is_ok());
    EXPECT_FALSE(
        TaskSpec::parse(valid_spec().to_text() + "preemptible: maybe\n")
            .is_ok());
    EXPECT_FALSE(
        TaskSpec::parse(valid_spec().to_text() + "qos: royal\n").is_ok());
}

TEST(TaskSpec, ParseValidatesResult)
{
    // Structurally fine but semantically invalid (gpus 0).
    std::string text = valid_spec().to_text();
    const auto pos = text.find("gpus: 8");
    text.replace(pos, 7, "gpus: 0");
    EXPECT_FALSE(TaskSpec::parse(text).is_ok());
}

TEST(EnumNames, RoundTrip)
{
    for (auto qos : {QosClass::kInteractive, QosClass::kBatch,
                     QosClass::kBestEffort}) {
        auto back = parse_qos_class(qos_class_name(qos));
        ASSERT_TRUE(back.is_ok());
        EXPECT_EQ(back.value(), qos);
    }
    for (auto r : {RuntimePref::kAuto, RuntimePref::kBareMetal,
                   RuntimePref::kContainer}) {
        auto back = parse_runtime_pref(runtime_pref_name(r));
        ASSERT_TRUE(back.is_ok());
        EXPECT_EQ(back.value(), r);
    }
    for (auto t : {TransportPref::kAuto, TransportPref::kTcp,
                   TransportPref::kRdma, TransportPref::kInNetwork}) {
        auto back = parse_transport_pref(transport_pref_name(t));
        ASSERT_TRUE(back.is_ok());
        EXPECT_EQ(back.value(), t);
    }
}

} // namespace
} // namespace tacc::workload
