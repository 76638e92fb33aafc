// Linearizability sweep: every checked tree (trees::checked_trees(): the
// registry plus the unregistered variants) under the schedule-exploration
// policies (deterministic, seeded-random preemption, preempt-on-tx-begin,
// abort-storm injection), histories checked by src/check. Plus determinism
// of replay (same spec => identical history), a bounded systematic
// exploration on a tiny configuration, and the slug checks.
#include <set>
#include <string>
#include <vector>

#include "check/harness.hpp"
#include "check/explore.hpp"
#include "repro_main.hpp"
#include "trees/variants.hpp"

namespace euno::tests {
namespace {

using check::LinPattern;
using check::LinRun;
using check::LinSpec;
using sim::SchedulePolicy;

check::LinRun run_lin(const LinSpec& spec) {
  return check::run_lin(
      spec, trees::find_tree(trees::checked_trees(), spec.tree)->make_sim);
}

SchedulePolicy rand_policy(std::uint64_t seed, std::uint32_t preempt_pct = 100,
                           bool txp = false, std::uint32_t storm = 0) {
  SchedulePolicy p;
  p.mode = SchedulePolicy::Mode::kRandom;
  p.seed = seed;
  p.preempt_pct = preempt_pct;
  p.preempt_on_tx_begin = txp;
  p.abort_storm_pct = storm;
  return p;
}

std::vector<LinSpec> lin_params() {
  std::vector<LinSpec> specs;
  for (const trees::TreeEntry& e : trees::checked_trees()) {
    LinSpec s;
    s.tree = e.kind;
    // Deterministic heap scheduler (the production interleaving).
    specs.push_back(s);
    // Seeded random preemption at access granularity.
    s.sched = rand_policy(7);
    specs.push_back(s);
    // Adversarial: deschedule every fiber right after tx begin, plus a
    // moderate random-preemption background.
    s.sched = rand_policy(11, 60, /*txp=*/true);
    specs.push_back(s);
    // Abort-storm injection: 25% of transaction begins are doomed on the
    // spot, pushing every tree through its retry and fallback paths.
    s.sched = rand_policy(13, 40, /*txp=*/false, /*storm=*/25);
    specs.push_back(s);
    // Split-race pattern: readers chase a writer that splits leaves.
    s.pattern = LinPattern::kSplitRace;
    s.preload = 12;
    s.ops_per_thread = 48;
    s.sched = rand_policy(17);
    specs.push_back(s);
  }
  // Adaptive-enabled Euno trees (full() config: lockbits + adaptation).
  for (const char* kind : {"euno-s2", "euno"}) {
    LinSpec s;
    s.tree = kind;
    s.sched = rand_policy(19, 80, /*txp=*/true);
    specs.push_back(s);
  }
  // Graceful degradation under an abort storm: the hardened policy with a
  // hair-trigger health monitor must flip each HTM-using tree to lock-only
  // mid-run without the history ceasing to linearize.
  for (const char* kind :
       {"htm-bptree", "htm-masstree", "euno-s2-markbits", "euno-markbits",
        "euno-skiplist-markbits", "rcu-bptree"}) {
    LinSpec s;
    s.tree = kind;
    s.degrade = true;
    s.sched = rand_policy(29, 50, /*txp=*/false, /*storm=*/60);
    specs.push_back(s);
  }
  // Three-path degrade chain: the same hair-trigger monitor drives the
  // policy's staged descent fast -> middle+slow -> terminal lock-only
  // mid-run (each stage flip counts one degradation; see the dedicated
  // chain test below for the stage assertions).
  for (const std::uint64_t seed : {29ull, 31ull}) {
    LinSpec s;
    s.tree = "3path-bptree";
    s.degrade = true;
    s.sched = rand_policy(seed, 50, /*txp=*/false, /*storm=*/60);
    specs.push_back(s);
  }
  return specs;
}

class LinCheck : public ::testing::TestWithParam<LinSpec> {};

TEST_P(LinCheck, HistoryIsLinearizable) {
  const LinSpec& spec = GetParam();
  repro_extra() = "# replay: " + check::lin_repro_line(spec);
  const LinRun run = run_lin(spec);
  ASSERT_FALSE(run.history.empty());
  EXPECT_TRUE(run.check.complete)
      << "segment cap exceeded; checker result is partial";
  EXPECT_FALSE(run.truncated) << "scheduler hit the max_steps valve";
  std::string detail;
  for (const auto& v : run.check.violations) detail += describe_violation(v);
  EXPECT_TRUE(run.check.ok) << detail << check::lin_repro_line(spec);
  if (spec.degrade) {
    EXPECT_GE(run.degradations, 1u)
        << "degrade spec never tripped the HTM-health monitor";
  }
}

INSTANTIATE_TEST_SUITE_P(AllTrees, LinCheck, ::testing::ValuesIn(lin_params()),
                         [](const ::testing::TestParamInfo<LinSpec>& info) {
                           return info.param.name();
                         });

// Dedicated degrade-chain check: under a violent abort storm the three-path
// policy must walk the whole descent — fast disabled (stage 1), then the
// terminal lock-only mode (stage 2) — mid-run, with the history still
// linearizing across both flips. Each stage flip counts exactly one
// degradation, so the full chain shows as exactly two.
TEST(LinDegradeChain, ThreePathDescendsToTerminalLockOnly) {
  LinSpec spec;
  spec.tree = "3path-bptree";
  spec.degrade = true;
  spec.ops_per_thread = 80;
  spec.sched = rand_policy(29, 50, /*txp=*/false, /*storm=*/60);
  repro_extra() = "# replay: " + check::lin_repro_line(spec);
  const LinRun run = run_lin(spec);
  std::string detail;
  for (const auto& v : run.check.violations) detail += describe_violation(v);
  EXPECT_TRUE(run.check.ok) << detail << check::lin_repro_line(spec);
  EXPECT_EQ(run.degradations, 2u)
      << "expected the full fast->middle->terminal descent";
}

TEST(LinDeterminism, SameSpecSameHistory) {
  LinSpec spec;
  spec.tree = "euno-markbits";
  spec.sched = rand_policy(23, 90, /*txp=*/true, /*storm=*/10);
  repro_extra() = "# replay: " + check::lin_repro_line(spec);
  const LinRun a = run_lin(spec);
  const LinRun b = run_lin(spec);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const auto& x = a.history[i];
    const auto& y = b.history[i];
    ASSERT_EQ(x.inv, y.inv) << "event " << i;
    ASSERT_EQ(x.res, y.res) << "event " << i;
    ASSERT_EQ(x.op, y.op) << "event " << i;
    ASSERT_EQ(x.core, y.core) << "event " << i;
    ASSERT_EQ(x.key, y.key) << "event " << i;
    ASSERT_EQ(x.value, y.value) << "event " << i;
    ASSERT_EQ(x.found, y.found) << "event " << i;
    ASSERT_EQ(x.scan_out, y.scan_out) << "event " << i;
  }
}

TEST(LinDeterminism, SpecStringRoundTrips) {
  LinSpec spec;
  spec.tree = "htm-masstree";
  spec.degrade = true;
  spec.pattern = LinPattern::kSplitRace;
  spec.threads = 2;
  spec.ops_per_thread = 9;
  spec.workload_seed = 99;
  spec.sched = rand_policy(5, 33, true, 7);
  const auto parsed = LinSpec::parse(spec.to_string(), trees::checked_trees());
  ASSERT_TRUE(parsed.has_value()) << spec.to_string();
  EXPECT_EQ(parsed->to_string(), spec.to_string());
}

// A slug is checked at run time now, so a wrong one must fail loudly: a
// replay string naming no checked tree is rejected, not run as some default.
TEST(LinSpecParse, UnknownTreeSlugIsRejected) {
  LinSpec spec;
  std::string text = spec.to_string();
  ASSERT_TRUE(LinSpec::parse(text, trees::checked_trees()).has_value());
  text.replace(0, text.find(';'), "tree=no-such-tree");
  EXPECT_FALSE(LinSpec::parse(text, trees::checked_trees()).has_value())
      << text;
  EXPECT_FALSE(LinSpec::parse("tree=;pattern=mix", trees::checked_trees()))
      << "empty slug";
}

// The sweep covers exactly the registry plus the variant list: registering a
// tree is what puts it under the checker.
TEST(LinSweep, CoversEveryRegisteredTreeAndVariant) {
  std::set<std::string> expected;
  for (const auto& e : trees::tree_registry().entries()) expected.insert(e.kind);
  for (const auto& e : trees::variant_trees()) {
    EXPECT_EQ(trees::tree_registry().by_name(e.kind), nullptr)
        << e.kind << ": a variant must not shadow a registered slug";
    expected.insert(e.kind);
  }
  std::set<std::string> swept;
  for (const LinSpec& s : lin_params()) swept.insert(s.tree);
  EXPECT_EQ(swept, expected);
}

// Bounded systematic exploration of a tiny configuration: 2 fibers, a few
// ops on one hot key pair. Every explored interleaving must linearize, and
// the explorer must actually deviate from the default schedule.
TEST(LinExplore, SystematicTinyConfigAllSchedulesLinearize) {
  LinSpec spec;
  spec.tree = "euno-s2-markbits";
  spec.threads = 2;
  spec.ops_per_thread = 3;
  spec.key_range = 2;
  spec.preload = 1;
  spec.sched.mode = SchedulePolicy::Mode::kSystematic;
  spec.sched.max_steps = 200000;
  repro_extra() = "# replay: " + check::lin_repro_line(spec);

  check::ExploreOptions eo;
  eo.max_preemptions = 1;
  eo.max_schedules = 48;
  check::ScheduleExplorer explorer(eo);
  std::uint64_t runs = 0;
  std::uint64_t deviating_runs = 0;
  while (auto prefix = explorer.next()) {
    LinSpec s = spec;
    s.sched.choices = *prefix;
    if (!prefix->empty()) ++deviating_runs;
    const LinRun run = run_lin(s);
    std::string detail;
    for (const auto& v : run.check.violations) detail += describe_violation(v);
    ASSERT_TRUE(run.check.ok)
        << detail << "choices prefix len " << prefix->size() << "\n"
        << check::lin_repro_line(s);
    EXPECT_FALSE(run.truncated);
    explorer.report(run.decisions);
    ++runs;
  }
  EXPECT_EQ(runs, explorer.schedules_started());
  EXPECT_GE(runs, 2u) << "explorer never left the default schedule";
  EXPECT_GE(deviating_runs, 1u);
}

}  // namespace
}  // namespace euno::tests

EUNO_TEST_MAIN_WITH_REPRO()
