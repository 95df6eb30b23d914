// Self-test of the benchmark harness: the output gate must be able to fail,
// and the tail percentile must refuse sample sets that cannot support it.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "backend/instruction_stream.hpp"
#include "core/compile_report.hpp"
#include "core/session.hpp"
#include "graph/zoo/zoo.hpp"
#include "harness.hpp"

namespace {

using namespace perfbench;
using pimcomp::Json;

std::vector<double> ramp(int count) {
  std::vector<double> values;
  for (int i = 0; i < count; ++i) values.push_back(static_cast<double>(i));
  return values;
}

TEST(Quantile, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(TailQuantile, RefusesFewerThanTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_NO_THROW(tail_quantile(ramp(1000), 0.99));
  EXPECT_THROW(tail_quantile(ramp(500), 0.99), std::invalid_argument);
  EXPECT_NO_THROW(tail_quantile(ramp(40), 0.75));
  EXPECT_THROW(tail_quantile(ramp(30), 0.75), std::invalid_argument);
  EXPECT_THROW(tail_quantile({}, 0.5), std::invalid_argument);
}

/// A genuine single-scenario reply: squeezenet@32 LL lowered by isa-json,
/// with its simulation, as a daemon would send it.
pimcomp::serve::CompileReply genuine_reply() {
  pimcomp::Graph graph = pimcomp::zoo::build("squeezenet", 32);
  const pimcomp::HardwareConfig hw =
      pimcomp::fit_core_count(graph, pimcomp::HardwareConfig::puma_default(), 3.0);
  pimcomp::CompilerSession session(std::move(graph), hw);
  pimcomp::CompileOptions options;
  options.mode = pimcomp::PipelineMode::kLowLatency;
  options.backend = "isa-json";
  options.ga.population = 4;
  options.ga.generations = 2;
  const pimcomp::CompileResult result = session.compile(options);

  pimcomp::serve::CompileReply reply;
  reply.id = 1;
  pimcomp::serve::OutcomeMessage outcome;
  outcome.id = 1;
  outcome.index = 0;
  outcome.ok = true;
  outcome.compile = pimcomp::compile_result_to_json(result);
  outcome.simulation = pimcomp::sim_report_to_json(session.simulate(result));
  reply.outcomes.push_back(outcome);
  pimcomp::serve::ArtifactMessage artifact;
  artifact.id = 1;
  artifact.index = 0;
  artifact.artifact = result.stream->to_json();
  reply.artifacts.push_back(artifact);
  reply.ok_count = 1;
  return reply;
}

class ReplyGate : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { reply_ = new pimcomp::serve::CompileReply(genuine_reply()); }
  static void TearDownTestSuite() { delete reply_; }
  static pimcomp::serve::CompileReply* reply_;
};

pimcomp::serve::CompileReply* ReplyGate::reply_ = nullptr;

TEST_F(ReplyGate, GenuineReplyPasses) {
  const ReplyCheck check = check_reply(*reply_, true, true);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_NE(check.mapping_key, 0u);
  EXPECT_GT(check.instructions, 0);
}

TEST_F(ReplyGate, CorruptedRepliesFail) {
  pimcomp::serve::CompileReply failed_outcome = *reply_;
  failed_outcome.outcomes.front().ok = false;
  EXPECT_FALSE(check_reply(failed_outcome, true, true).ok);

  pimcomp::serve::CompileReply no_outcome = *reply_;
  no_outcome.outcomes.clear();
  EXPECT_FALSE(check_reply(no_outcome, true, true).ok);

  pimcomp::serve::CompileReply no_simulation = *reply_;
  no_simulation.outcomes.front().simulation = Json();
  EXPECT_FALSE(check_reply(no_simulation, true, true).ok);

  pimcomp::serve::CompileReply no_stream = *reply_;
  no_stream.artifacts.clear();
  EXPECT_FALSE(check_reply(no_stream, true, true).ok);

  pimcomp::serve::CompileReply bad_stream = *reply_;
  bad_stream.artifacts.front().artifact["total_ops"] = Json(std::int64_t{-1});
  const ReplyCheck check = check_reply(bad_stream, true, true);
  EXPECT_FALSE(check.ok);
  EXPECT_FALSE(check.error.empty());
}

TEST_F(ReplyGate, MismatchedDigestIsCountedAsFailed) {
  const ReplyCheck cold = check_reply(*reply_, true, true);
  pimcomp::serve::CompileReply drifted = *reply_;
  drifted.outcomes.front().compile["estimated_fitness_us"] = Json(1.0);
  const ReplyCheck hit = check_reply(drifted, true, true);
  ASSERT_TRUE(cold.ok && hit.ok);
  EXPECT_NE(cold.digest, hit.digest);

  // Stage times are not part of the result.
  pimcomp::serve::CompileReply retimed = *reply_;
  retimed.outcomes.front().compile["stage_times"] = Json::object();
  EXPECT_EQ(check_reply(retimed, true, true).digest, cold.digest);

  KeyBook book;
  Oracle oracle;
  oracle.check(book.observe("k", cold.digest), "cold");
  oracle.check(book.observe("k", cold.digest), "memory hit");
  oracle.check(book.observe("k", hit.digest), "drifted hit");
  EXPECT_EQ(oracle.attempted(), 3u);
  EXPECT_EQ(oracle.failed(), 1u);

  Report report;
  report.attempted = oracle.attempted();
  report.failed = oracle.failed();
  RunConfig config;
  const Json line = result_line(config, report);
  EXPECT_FALSE(line.at("correct").as_bool());
  EXPECT_EQ(line.at("failed").as_int(), 1);
}

TEST(Tracer, SelfTimeSubtractsCoveredChildren) {
  Tracer tracer;
  const int root = tracer.add("request", -1, 0, 0.0, 10.0);
  tracer.add("mapping", root, 0, 1.0, 4.0);
  tracer.add("schedule", root, 0, 3.0, 6.0);  // overlaps mapping by 1
  tracer.add("sim", root, 0, 9.0, 12.0);      // clipped to the root
  const auto self = tracer.self_seconds();
  EXPECT_DOUBLE_EQ(self.at("request"), 10.0 - 5.0 - 1.0);
  EXPECT_DOUBLE_EQ(self.at("mapping"), 3.0);
}

}  // namespace
