// The fuzzer's own test suite: determinism, clean sweeps on the real
// protocol, self-validation via protocol mutations, shrinking, and the
// counterexample artifact round-trip.
//
// The self-validation cases are the fuzzer's reason to be trusted: each
// disables one protocol rule (co::proto::Mutation) and asserts the fuzzer
// reports a violation within a bounded number of seeds, shrinks it, and
// that replaying the shrunk artifact reproduces the violation with the
// identical execution digest.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/fuzz/fuzzer.h"

namespace co::fuzz {
namespace {

TEST(FuzzScenario, GenerationIsDeterministic) {
  for (std::uint64_t seed : {1ull, 42ull, 987654321ull}) {
    const Scenario a = Scenario::generate(seed);
    const Scenario b = Scenario::generate(seed);
    EXPECT_EQ(a.to_json().dump(), b.to_json().dump()) << "seed=" << seed;
  }
}

TEST(FuzzScenario, JsonRoundTripIsExact) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const Scenario a = Scenario::generate(seed);
    const std::string dumped = a.to_json().dump(2);
    const Scenario b = Scenario::from_json(Json::parse(dumped));
    EXPECT_EQ(dumped, b.to_json().dump(2)) << "seed=" << seed;
  }
}

TEST(FuzzScenario, DistinctSeedsGiveDistinctScenarios) {
  const Scenario a = Scenario::generate(1);
  const Scenario b = Scenario::generate(2);
  EXPECT_NE(a.to_json().dump(), b.to_json().dump());
}

TEST(FuzzRunner, SameSeedSameDigest) {
  for (std::uint64_t seed : {3ull, 7ull, 11ull}) {
    const Scenario sc = Scenario::generate(seed);
    const RunReport a = run_scenario(sc, RunOptions{});
    const RunReport b = run_scenario(sc, RunOptions{});
    EXPECT_EQ(a.digest, b.digest) << "seed=" << seed;
    EXPECT_EQ(a.trace_events, b.trace_events) << "seed=" << seed;
    EXPECT_GT(a.trace_events, 0u) << "seed=" << seed;
    // The sans-io effect stream is pinned too, one layer below the events.
    EXPECT_EQ(a.effect_digest, b.effect_digest) << "seed=" << seed;
    EXPECT_EQ(a.effects_emitted, b.effects_emitted) << "seed=" << seed;
    EXPECT_GT(a.effects_emitted, 0u) << "seed=" << seed;
  }
}

TEST(FuzzRunner, RealProtocolSurvivesSweep) {
  FuzzOptions o;
  o.start_seed = 1;
  o.seeds = 60;  // CI-friendly slice; the nightly sweep runs 1000
  const FuzzOutcome out = fuzz(o);
  EXPECT_EQ(out.failing_seed, std::nullopt)
      << "seed " << *out.failing_seed << " violated: "
      << out.counterexample->violation_detail;
  EXPECT_EQ(out.executed, 60u);
}

class FuzzSelfValidation
    : public ::testing::TestWithParam<proto::Mutation> {};

// Disable one protocol rule; the fuzzer must catch it within 100 seeds,
// shrink it, and the shrunk artifact must replay byte-for-byte.
TEST_P(FuzzSelfValidation, MutationCaughtShrunkAndReplayedExactly) {
  FuzzOptions o;
  o.start_seed = 1;
  o.seeds = 100;
  o.run.mutation = GetParam();
  const FuzzOutcome out = fuzz(o);

  ASSERT_TRUE(out.failing_seed.has_value())
      << "mutation " << mutation_name(GetParam())
      << " was not caught within 100 seeds";
  ASSERT_TRUE(out.counterexample.has_value());
  const Counterexample& ce = *out.counterexample;
  EXPECT_FALSE(ce.violation_kind.empty());
  EXPECT_EQ(ce.original_seed, *out.failing_seed);

  // The shrunk scenario is genuinely smaller than the original.
  ASSERT_TRUE(out.shrink.has_value());
  const Scenario original = Scenario::generate(*out.failing_seed);
  EXPECT_LE(ce.scenario.submits.size(), original.submits.size());
  EXPECT_LE(ce.scenario.faults.size(), original.faults.size());
  EXPECT_LE(ce.scenario.n, original.n);

  // Byte-for-byte replay: same violation kind AND same execution digest.
  const ReplayVerdict v = replay(ce);
  EXPECT_TRUE(v.reproduced) << "shrunk scenario no longer fails";
  EXPECT_TRUE(v.exact) << "digest drift: replay " << std::hex
                       << v.report.digest << " vs artifact " << ce.digest;
}

INSTANTIATE_TEST_SUITE_P(
    Mutations, FuzzSelfValidation,
    ::testing::Values(proto::Mutation::kNoCausalGate,
                      proto::Mutation::kDeliverOnAccept,
                      proto::Mutation::kIgnorePackCondition),
    [](const ::testing::TestParamInfo<proto::Mutation>& info) {
      return std::string(mutation_name(info.param));
    });

TEST(FuzzShrink, PassingScenarioIsRejected) {
  const Scenario sc = Scenario::generate(1);  // seed 1 passes (sweep above)
  EXPECT_THROW(shrink(sc, RunOptions{}), std::invalid_argument);
}

TEST(FuzzShrink, PreservesViolationKind) {
  RunOptions o;
  o.mutation = proto::Mutation::kDeliverOnAccept;
  // Find the first failing seed, then shrink it.
  FuzzOptions fo;
  fo.seeds = 100;
  fo.run = o;
  fo.shrink_failures = false;
  const FuzzOutcome out = fuzz(fo);
  ASSERT_TRUE(out.failing_seed.has_value());
  const Scenario sc = Scenario::generate(*out.failing_seed);
  const RunReport before = run_scenario(sc, o);
  const ShrinkResult sr = shrink(sc, o);
  EXPECT_EQ(sr.report.violation_kind, before.violation_kind);
  EXPECT_TRUE(sr.report.failed);
  EXPECT_GT(sr.runs, 0u);
}

TEST(FuzzCounterexample, SaveLoadRoundTrip) {
  RunOptions o;
  o.mutation = proto::Mutation::kDeliverOnAccept;
  FuzzOptions fo;
  fo.seeds = 100;
  fo.run = o;
  const FuzzOutcome out = fuzz(fo);
  ASSERT_TRUE(out.counterexample.has_value());

  const std::string path = ::testing::TempDir() + "/co_fuzz_ce_test.json";
  out.counterexample->save(path);
  const Counterexample loaded = Counterexample::load(path);
  EXPECT_EQ(loaded.to_json().dump(2), out.counterexample->to_json().dump(2));
  EXPECT_EQ(loaded.digest, out.counterexample->digest);
  EXPECT_EQ(loaded.effect_digest, out.counterexample->effect_digest);
  EXPECT_GT(loaded.effects_emitted, 0u);
  EXPECT_FALSE(loaded.effect_sample.empty());

  const ReplayVerdict v = replay(loaded);
  EXPECT_TRUE(v.exact);
  std::remove(path.c_str());
}

TEST(FuzzCounterexample, ArtifactWithoutEffectDigestStillReplaysExactly) {
  // Artifacts written before effect recording carry no effect_digest;
  // loading and replaying them must still work, with the effect-stream
  // comparison skipped (to_json omits the fields when effects_emitted == 0).
  RunOptions o;
  o.mutation = proto::Mutation::kDeliverOnAccept;
  FuzzOptions fo;
  fo.seeds = 100;
  fo.run = o;
  const FuzzOutcome out = fuzz(fo);
  ASSERT_TRUE(out.counterexample.has_value());

  Counterexample legacy = *out.counterexample;
  legacy.effect_digest = 0;
  legacy.effects_emitted = 0;
  legacy.effect_sample.clear();
  const Counterexample loaded =
      Counterexample::from_json(Json::parse(legacy.to_json().dump()));
  EXPECT_EQ(loaded.effects_emitted, 0u);
  const ReplayVerdict v = replay(loaded);
  EXPECT_TRUE(v.reproduced);
  EXPECT_TRUE(v.exact);
}

TEST(FuzzCounterexample, V1ArtifactReplaysWithItsEffectDigestCompared) {
  // A genuine co_fuzz/counterexample/v1 artifact (deliver_on_accept, seed
  // 2, shrunk). Its `digest` folded the retired text trace, which no run
  // can reproduce, so it is ignored; its effect digest still pins the run.
  const Counterexample v1 =
      Counterexample::load(CO_TEST_DATA_DIR "/counterexample_v1.json");
  EXPECT_EQ(v1.trace_events, 0u);
  ASSERT_GT(v1.effects_emitted, 0u);
  const ReplayVerdict v = replay(v1);
  EXPECT_TRUE(v.reproduced);
  EXPECT_EQ(v.report.effect_digest, v1.effect_digest);
  EXPECT_EQ(v.report.effects_emitted, v1.effects_emitted);
  EXPECT_TRUE(v.exact);

  // The effect digest is compared, not skipped: a drifted one is caught.
  Counterexample drifted = v1;
  drifted.effect_digest ^= 1;
  const ReplayVerdict d = replay(drifted);
  EXPECT_TRUE(d.reproduced);
  EXPECT_FALSE(d.exact);

  // Saving writes v2, which carries (and then compares) the record digest.
  const Json saved = v1.to_json();
  EXPECT_EQ(saved.at("format").as_string(), "co_fuzz/counterexample/v2");
  Counterexample upgraded = v1;
  upgraded.digest = v.report.digest;
  upgraded.trace_events = v.report.trace_events;
  EXPECT_TRUE(replay(Counterexample::from_json(upgraded.to_json())).exact);
  upgraded.digest ^= 1;
  EXPECT_FALSE(replay(upgraded).exact);
}

TEST(FuzzCounterexample, V2ArtifactReplaysWithBothDigestsCompared) {
  // A genuine co_fuzz/counterexample/v2 artifact (deliver_on_accept, seed
  // 2, shrunk; its 67 records include dup, f2, ret and rtx). Its `digest`
  // folds every binary trace record, so a replay that reorders or
  // re-stamps one record is caught even when the effect stream matches.
  const Counterexample v2 =
      Counterexample::load(CO_TEST_DATA_DIR "/counterexample_v2.json");
  EXPECT_EQ(v2.trace_events, 67u);
  ASSERT_GT(v2.effects_emitted, 0u);
  const ReplayVerdict v = replay(v2);
  EXPECT_TRUE(v.reproduced);
  EXPECT_EQ(v.report.digest, v2.digest);
  EXPECT_EQ(v.report.trace_events, v2.trace_events);
  EXPECT_EQ(v.report.effect_digest, v2.effect_digest);
  EXPECT_EQ(v.report.effects_emitted, v2.effects_emitted);
  EXPECT_TRUE(v.exact);

  // Each digest is compared on its own: drifting either one is caught.
  Counterexample drifted = v2;
  drifted.digest ^= 1;
  EXPECT_FALSE(replay(drifted).exact);
  drifted = v2;
  drifted.effect_digest ^= 1;
  EXPECT_FALSE(replay(drifted).exact);

  // Saving it again is byte-stable.
  EXPECT_EQ(Counterexample::from_json(v2.to_json()).to_json().dump(),
            v2.to_json().dump());
}

TEST(FuzzCounterexample, RejectsUnknownFormat) {
  EXPECT_THROW(Counterexample::from_json(Json::parse("{\"format\":\"bogus\"}")),
               std::runtime_error);
}

TEST(FuzzJson, ParsesAndDumpsStably) {
  const std::string src =
      "{\"b\":[1,2,3],\"a\":{\"x\":-5,\"y\":1.5},\"s\":\"hi\\n\",\"t\":true,"
      "\"z\":null}";
  const Json j = Json::parse(src);
  // Dump is key-sorted and stable under re-parsing.
  EXPECT_EQ(Json::parse(j.dump()).dump(), j.dump());
  EXPECT_EQ(j.at("a").at("x").as_i64(), -5);
  EXPECT_EQ(j.at("b").as_array().size(), 3u);
  EXPECT_TRUE(j.at("t").as_bool());
}

TEST(FuzzJson, ExactU64RoundTrip) {
  const std::uint64_t big = 0xffffffffffffffffULL;
  Json::Object o;
  o["v"] = Json(big);
  const Json parsed = Json::parse(Json(std::move(o)).dump());
  EXPECT_EQ(parsed.at("v").as_u64(), big);
}

TEST(FuzzJson, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated",
                          "{\"a\":1,}", "+1", "nul", "1 2"}) {
    EXPECT_THROW(Json::parse(bad), std::runtime_error) << "input: " << bad;
  }
}

}  // namespace
}  // namespace co::fuzz
