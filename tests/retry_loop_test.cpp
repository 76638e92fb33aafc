// Tests of the shared HTM retry engine (ctx/retry_loop.hpp) through a
// scripted backend: ScriptedCtx replays a fixed sequence of attempt results
// and fallback-lock states, and counts every clock unit, pause and lock
// acquisition, so each policy mechanism is checked exactly and without real
// HTM. The engine is the code SimCtx and NativeCtx both run, so this covers
// the native RTM retry path on hosts without RTM.
#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <numeric>
#include <thread>
#include <vector>

#include "ctx/retry_loop.hpp"

namespace euno::ctx {
namespace {

using htm::AbortReason;
using htm::RetryPolicy;

/// One scripted HTM attempt and the lock state the engine sees before it.
struct Step {
  bool commit = false;
  AbortReason reason = AbortReason::kConflict;
  std::uint32_t held_polls = 0;  // polls that see the lock held first
  std::uint64_t cost = 10;       // clock units the attempt takes
};

Step commit() { return Step{true}; }
Step abort_with(AbortReason r) { return Step{false, r}; }

template <bool kRescue>
class Scripted : public RetryLoop<Scripted<kRescue>> {
 public:
  explicit Scripted(std::vector<Step> script = {}, int id = 0)
      : RetryLoop<Scripted<kRescue>>(id), script(std::move(script)) {}

  // ---- backend hooks ----
  static constexpr bool kUnsubscribedRescue = kRescue;
  bool htm_available() const { return htm; }

  template <class Body>
  bool htm_attempt(FallbackLock&, bool subscribe, Body& body,
                   htm::TxResult& r) {
    const Step s = next < script.size() ? script[next] : rest;
    ++next;
    polled = 0;
    subscribed.push_back(subscribe);
    clock += s.cost;
    if (s.commit) {
      body();
      return true;
    }
    r.reason = s.reason;
    return false;
  }
  bool lock_held(FallbackLock&) {
    if (next < script.size() && polled < script[next].held_polls) {
      ++polled;
      return true;
    }
    return false;
  }
  void acquire_fallback(FallbackLock&) { ++acquires; }
  void release_fallback(FallbackLock&) { ++releases; }
  std::uint64_t now() const { return clock; }
  std::uint64_t wait_clock() const { return clock; }
  void pause(std::uint32_t n) {
    pauses.push_back(n);
    clock += n;
  }
  void spin_pause() { ++clock; }
  void note_event(TraceCode code, std::uint8_t = 0, std::uint8_t = 0) {
    events.push_back(code);
  }

  // ---- script and observations ----
  std::vector<Step> script;
  Step rest = commit();  // every attempt past the script
  bool htm = true;
  std::size_t next = 0;
  std::uint32_t polled = 0;
  std::uint64_t clock = 1000;
  int acquires = 0;
  int releases = 0;
  std::vector<bool> subscribed;
  std::vector<std::uint32_t> pauses;
  std::vector<TraceCode> events;

  const htm::TxStats& st() const { return this->stats().at(TxSite::kMono); }
  int count(TraceCode code) const {
    return static_cast<int>(std::count(events.begin(), events.end(), code));
  }
  TxnOutcome txn(FallbackLock& lock, const RetryPolicy& p) {
    return RetryLoop<Scripted<kRescue>>::txn(TxSite::kMono, lock, p, [] {});
  }
  TxnOutcome try_txn(FallbackLock& lock, const RetryPolicy& p) {
    return RetryLoop<Scripted<kRescue>>::try_txn(TxSite::kMono, lock, p, [] {});
  }
};

using ScriptedCtx = Scripted<false>;  // native-like: always subscribed
using RescueCtx = Scripted<true>;     // sim-like: lock-timeout rescue

RetryPolicy budgets(int conflict, int capacity, int other) {
  RetryPolicy p;
  p.conflict_retries = conflict;
  p.capacity_retries = capacity;
  p.other_retries = other;
  return p;
}

TEST(RetryLoop, PerReasonBudgetsAreSpentSeparately) {
  FallbackLock lock;
  ScriptedCtx c({abort_with(AbortReason::kConflict),
                 abort_with(AbortReason::kConflict),
                 abort_with(AbortReason::kCapacity),
                 abort_with(AbortReason::kOther),
                 abort_with(AbortReason::kConflict)});
  const TxnOutcome out = c.txn(lock, budgets(2, 1, 1));
  // Budgets 2/1/1 absorb the first four aborts; the third conflict
  // exhausts the conflict budget and serializes.
  EXPECT_TRUE(out.committed);
  EXPECT_TRUE(out.used_fallback);
  EXPECT_EQ(out.aborts, 5u);
  EXPECT_EQ(c.st().attempts, 5u);
  EXPECT_EQ(c.st().fallbacks, 1u);
  EXPECT_EQ(c.st().commits, 1u);
  EXPECT_EQ(c.acquires, 1);
  EXPECT_EQ(c.releases, 1);

  ScriptedCtx k({abort_with(AbortReason::kCapacity),
                 abort_with(AbortReason::kCapacity)});
  EXPECT_TRUE(k.txn(lock, budgets(10, 1, 10)).used_fallback);
  EXPECT_EQ(k.st().attempts, 2u);

  ScriptedCtx z({abort_with(AbortReason::kOther)});
  EXPECT_TRUE(z.txn(lock, budgets(10, 10, 0)).used_fallback);
  EXPECT_EQ(z.st().attempts, 1u);
}

TEST(RetryLoop, LockBusySpendsNoBudget) {
  FallbackLock lock;
  ScriptedCtx c(std::vector<Step>(6, abort_with(AbortReason::kLockBusy)));
  const TxnOutcome out = c.txn(lock, budgets(0, 0, 0));
  EXPECT_TRUE(out.committed);
  EXPECT_FALSE(out.used_fallback);
  EXPECT_EQ(out.aborts, 6u);
  EXPECT_EQ(c.st().attempts, 7u);
  EXPECT_EQ(c.st().aborts[static_cast<std::size_t>(AbortReason::kLockBusy)], 6u);
  EXPECT_EQ(c.acquires, 0);
  EXPECT_TRUE(c.pauses.empty());  // kLockBusy never backs off
}

TEST(RetryLoop, BackoffExponentIsPerReasonAndCapped) {
  RetryPolicy p = budgets(10, 10, 10);
  p.backoff = true;
  p.backoff_base = 4;
  p.backoff_cap = 16;
  FallbackLock lock;
  ScriptedCtx c({abort_with(AbortReason::kConflict),
                 abort_with(AbortReason::kConflict),
                 abort_with(AbortReason::kConflict),
                 abort_with(AbortReason::kConflict),
                 abort_with(AbortReason::kOther),
                 abort_with(AbortReason::kOther),
                 abort_with(AbortReason::kCapacity),
                 abort_with(AbortReason::kCapacity)});
  EXPECT_FALSE(c.txn(lock, p).used_fallback);
  // Conflict streak 4, 8, 16, 16 (capped); the kOther streak starts over at
  // 4; capacity aborts never back off. Each delay is jittered into [d/2, d].
  const std::vector<std::uint32_t> nominal = {4, 8, 16, 16, 4, 8};
  ASSERT_EQ(c.pauses.size(), nominal.size());
  for (std::size_t i = 0; i < nominal.size(); ++i) {
    EXPECT_GE(c.pauses[i], nominal[i] / 2) << i;
    EXPECT_LE(c.pauses[i], nominal[i]) << i;
  }
  EXPECT_EQ(c.st().backoff_cycles,
            std::accumulate(c.pauses.begin(), c.pauses.end(), std::uint64_t{0}));

  // The exponent stops growing at 16 doublings even under a huge cap.
  p.backoff_base = 1;
  p.backoff_cap = 1u << 30;
  p.conflict_retries = 30;
  ScriptedCtx e(std::vector<Step>(20, abort_with(AbortReason::kConflict)));
  e.txn(lock, p);
  ASSERT_EQ(e.pauses.size(), 20u);
  for (std::size_t i = 16; i < e.pauses.size(); ++i) {
    EXPECT_GE(e.pauses[i], (1u << 16) / 2) << i;
    EXPECT_LE(e.pauses[i], 1u << 16) << i;
  }
}

TEST(RetryLoop, AntiLemmingRearmsFullBudgetAfterRelease) {
  RetryPolicy p = budgets(1, 1, 1);
  p.anti_lemming = true;
  p.backoff_base = 4;
  p.backoff_cap = 16;
  p.rearm_grace = 8;
  Step held = abort_with(AbortReason::kConflict);
  held.held_polls = 3;
  const std::vector<Step> script = {abort_with(AbortReason::kConflict), held,
                                    commit()};
  FallbackLock lock;

  ScriptedCtx c(script);
  const TxnOutcome out = c.txn(lock, p);
  // The release re-armed the conflict budget the first abort spent.
  EXPECT_TRUE(out.committed);
  EXPECT_FALSE(out.used_fallback);
  EXPECT_EQ(c.st().attempts, 3u);
  // Three exponentially spaced polls (4, 8, 16, jittered), then the grace.
  ASSERT_GE(c.pauses.size(), 3u);
  const std::vector<std::uint32_t> nominal = {4, 8, 16};
  std::uint64_t waited = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(c.pauses[i], nominal[i] / 2) << i;
    EXPECT_LE(c.pauses[i], nominal[i]) << i;
    waited += c.pauses[i];
  }
  EXPECT_EQ(c.st().lock_wait_cycles, waited);
  EXPECT_LE(c.st().backoff_cycles, p.rearm_grace);
  EXPECT_EQ(c.pauses.size(), c.st().backoff_cycles != 0 ? 4u : 3u);

  // Without anti-lemming the same script spends the budget and serializes.
  p.anti_lemming = false;
  ScriptedCtx naive(script);
  EXPECT_TRUE(naive.txn(lock, p).used_fallback);
  EXPECT_EQ(naive.st().attempts, 2u);
  EXPECT_EQ(naive.st().lock_wait_cycles, 3u);  // three one-unit spins
  EXPECT_EQ(naive.st().backoff_cycles, 0u);
}

TEST(RetryLoop, SpinCapTimeoutsAndTheSimOnlyRescue) {
  RetryPolicy p;
  p.lock_wait_spin_cap = 3;
  p.lock_wait_timeout_limit = 1;
  Step held = commit();
  held.held_polls = 7;
  FallbackLock lock;

  // Native-like: timeouts are counted, the waiter stays subscribed.
  ScriptedCtx c({held});
  EXPECT_TRUE(c.txn(lock, p).committed);
  EXPECT_EQ(c.st().lock_wait_timeouts, 2u);  // polls 3 and 6
  EXPECT_EQ(c.st().lock_wait_cycles, 7u);
  EXPECT_EQ(c.st().unsubscribed_attempts, 0u);
  EXPECT_EQ(c.subscribed, std::vector<bool>{true});
  EXPECT_EQ(c.count(TraceCode::kLockWaitTimeout), 2);

  // Sim-like: the first timed-out episode switches to unsubscribed attempts.
  RescueCtx r({held});
  EXPECT_TRUE(r.txn(lock, p).committed);
  EXPECT_EQ(r.st().lock_wait_timeouts, 1u);
  EXPECT_EQ(r.st().unsubscribed_attempts, 1u);
  EXPECT_EQ(r.subscribed, std::vector<bool>{false});
}

TEST(RetryLoop, StarvationEscapeFiresAtThresholdAndResetsOnCommit) {
  RetryPolicy p = budgets(0, 0, 0);
  p.starvation_threshold = 2;
  FallbackLock lock;
  ScriptedCtx c({abort_with(AbortReason::kConflict), commit(),
                 abort_with(AbortReason::kConflict),
                 abort_with(AbortReason::kConflict),
                 abort_with(AbortReason::kConflict)});
  EXPECT_TRUE(c.txn(lock, p).used_fallback);   // starved 1
  EXPECT_FALSE(c.txn(lock, p).used_fallback);  // commit resets to 0
  EXPECT_TRUE(c.txn(lock, p).used_fallback);   // starved 1
  EXPECT_TRUE(c.txn(lock, p).used_fallback);   // starved 2
  EXPECT_EQ(c.st().starvation_escapes, 0u);
  const std::uint64_t attempts = c.st().attempts;

  // At the threshold: straight to the lock, no HTM attempt.
  EXPECT_TRUE(c.txn(lock, p).used_fallback);
  EXPECT_EQ(c.st().starvation_escapes, 1u);
  EXPECT_EQ(c.st().attempts, attempts);
  EXPECT_EQ(c.count(TraceCode::kStarvationEscape), 1);

  // The escape reset the count: the next exhausted op does not escape.
  EXPECT_TRUE(c.txn(lock, p).used_fallback);
  EXPECT_EQ(c.st().starvation_escapes, 1u);
  EXPECT_EQ(c.st().attempts, attempts + 1);
  EXPECT_EQ(c.next, c.script.size());
}

TEST(RetryLoop, HealthMonitorHasExactlyOneFlipper) {
  // Every trial hands kThreads threads a lock whose window is already full
  // and failing; each thread then commits once and feeds the window, so all
  // of them race to flip it. The CAS must admit exactly one per trial.
  RetryPolicy p;
  p.health_window = 64;
  p.health_min_commit_pct = 100;
  constexpr int kThreads = 4;
  constexpr int kTrials = 1000;
  std::vector<FallbackLock> locks(kTrials);
  for (auto& l : locks) l.health_attempts.store(p.health_window);
  std::vector<ScriptedCtx> ctxs;
  for (int t = 0; t < kThreads; ++t) {
    ctxs.emplace_back(std::vector<Step>{}, t);
    ctxs.back().events.reserve(4 * kTrials);
    ctxs.back().subscribed.reserve(kTrials);
  }
  std::barrier sync(kThreads);
  std::vector<std::thread> threads;
  for (auto& c : ctxs) {
    threads.emplace_back([&c, &locks, &p, &sync] {
      for (auto& l : locks) {
        sync.arrive_and_wait();
        c.txn(l, p);
      }
    });
  }
  for (auto& t : threads) t.join();

  for (const auto& l : locks) EXPECT_EQ(l.degraded.load(), 1u);
  std::uint64_t degradations = 0;
  int degraded_events = 0;
  for (const auto& c : ctxs) {
    degradations += c.st().degradations;
    degraded_events += c.count(TraceCode::kHtmDegraded);
  }
  EXPECT_EQ(degradations, std::uint64_t{kTrials});
  EXPECT_EQ(degraded_events, kTrials);

  // A degraded tree serializes without an HTM attempt.
  ScriptedCtx d;
  EXPECT_TRUE(d.txn(locks[0], p).used_fallback);
  EXPECT_EQ(d.st().attempts, 0u);
  EXPECT_EQ(d.st().degradations, 0u);

  // Failing windows flip once; healthy windows reset instead.
  p.health_min_commit_pct = 50;
  p.conflict_retries = 0;
  FallbackLock sick;
  ScriptedCtx s;
  s.rest = abort_with(AbortReason::kConflict);
  for (int i = 0; i < 200; ++i) s.txn(sick, p);
  EXPECT_EQ(sick.degraded.load(), 1u);
  EXPECT_EQ(s.st().degradations, 1u);
  FallbackLock healthy;
  ScriptedCtx h;
  for (int i = 0; i < 200; ++i) h.txn(healthy, p);
  EXPECT_EQ(healthy.degraded.load(), 0u);
  EXPECT_EQ(h.st().degradations, 0u);
}

TEST(RetryLoop, TryTxnNeverTakesTheLock) {
  RetryPolicy p = budgets(1, 1, 1);
  p.starvation_threshold = 1;
  p.health_window = 4;
  FallbackLock lock;
  ScriptedCtx c;
  c.rest = abort_with(AbortReason::kConflict);
  for (int i = 0; i < 3; ++i) {
    const TxnOutcome out = c.try_txn(lock, p);
    EXPECT_FALSE(out.committed);
    EXPECT_FALSE(out.used_fallback);
    EXPECT_EQ(out.aborts, 2u);
  }
  EXPECT_EQ(c.acquires, 0);
  EXPECT_EQ(c.st().fallbacks, 0u);
  EXPECT_EQ(c.st().attempts, 6u);
  // try_txn feeds neither the starvation count nor the health window.
  EXPECT_EQ(c.st().starvation_escapes, 0u);
  EXPECT_EQ(lock.health_attempts.load(), 0u);

  // Budget exhaustion in unsubscribed (rescue) mode returns too: the rescue
  // re-arms only for txn(), which cannot serialize on a leaked lock.
  RetryPolicy rescue = budgets(0, 0, 0);
  rescue.lock_wait_spin_cap = 1;
  rescue.lock_wait_timeout_limit = 1;
  Step held = abort_with(AbortReason::kConflict);
  held.held_polls = 1;
  RescueCtx r({held});
  EXPECT_FALSE(r.try_txn(lock, rescue).committed);
  EXPECT_EQ(r.st().unsubscribed_attempts, 1u);
  EXPECT_EQ(r.acquires, 0);

  // A degraded tree still gets its HTM attempts through try_txn.
  lock.degraded.store(1);
  c.rest = commit();
  EXPECT_TRUE(c.try_txn(lock, p).committed);
  EXPECT_EQ(c.acquires, 0);

  // Without HTM, try_txn attempts nothing and txn serializes.
  ScriptedCtx n;
  n.htm = false;
  EXPECT_FALSE(n.try_txn(lock, p).committed);
  EXPECT_EQ(n.st().attempts, 0u);
  EXPECT_EQ(n.acquires, 0);
  FallbackLock fresh;
  EXPECT_TRUE(n.txn(fresh, p).used_fallback);
  EXPECT_EQ(n.st().attempts, 1u);
}

TEST(RetryLoop, DeadlineThrowsAtEachCheckPoint) {
  FallbackLock lock;

  // 1. Entry: nothing attempted, nothing acquired.
  ScriptedCtx entry;
  entry.set_deadline(entry.clock);
  EXPECT_THROW(entry.txn(lock, RetryPolicy{}), DeadlineExceeded);
  EXPECT_EQ(entry.st().attempts, 0u);
  EXPECT_EQ(entry.st().deadline_exceeded, 1u);
  EXPECT_EQ(entry.count(TraceCode::kDeadlineExceeded), 1);
  // The throw retired the deadline: the next region runs normally.
  EXPECT_TRUE(entry.txn(lock, RetryPolicy{}).committed);

  // 2. Lock wait: the partial episode is accounted before the throw.
  Step held = commit();
  held.held_polls = 100;
  ScriptedCtx wait({held});
  wait.set_deadline(wait.clock + 10);
  EXPECT_THROW(wait.txn(lock, RetryPolicy{}), DeadlineExceeded);
  EXPECT_EQ(wait.st().attempts, 0u);
  EXPECT_EQ(wait.st().lock_wait_cycles, 10u);
  EXPECT_EQ(wait.st().deadline_exceeded, 1u);

  // 3. Between attempts: after an abort with budget left.
  ScriptedCtx between({abort_with(AbortReason::kConflict)});
  between.set_deadline(between.clock + 5);
  EXPECT_THROW(between.txn(lock, budgets(5, 5, 5)), DeadlineExceeded);
  EXPECT_EQ(between.st().attempts, 1u);
  EXPECT_EQ(between.acquires, 0);

  // 4. Before the fallback: the budget is exhausted, so the between-attempts
  // check is never reached (try_txn, which has no fallback, returns).
  ScriptedCtx pre({abort_with(AbortReason::kConflict)});
  pre.set_deadline(pre.clock + 5);
  EXPECT_THROW(pre.txn(lock, budgets(0, 0, 0)), DeadlineExceeded);
  EXPECT_EQ(pre.st().attempts, 1u);
  EXPECT_EQ(pre.st().fallbacks, 0u);
  EXPECT_EQ(pre.acquires, 0);
  ScriptedCtx pre_try({abort_with(AbortReason::kConflict)});
  pre_try.set_deadline(pre_try.clock + 5);
  EXPECT_FALSE(pre_try.try_txn(lock, budgets(0, 0, 0)).committed);
  EXPECT_EQ(pre_try.st().deadline_exceeded, 0u);

  // Never after the first region: a blown deadline in the op's second
  // region runs to completion through every check point.
  Step late = abort_with(AbortReason::kConflict);
  late.held_polls = 5;
  ScriptedCtx after({commit(), late});
  after.set_deadline(after.clock + 20);
  EXPECT_TRUE(after.txn(lock, RetryPolicy{}).committed);
  after.clock += 1000;
  EXPECT_TRUE(after.txn(lock, budgets(0, 0, 0)).used_fallback);
  EXPECT_EQ(after.st().deadline_exceeded, 0u);
}

}  // namespace
}  // namespace euno::ctx
