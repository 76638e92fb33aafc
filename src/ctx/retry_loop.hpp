// The HTM retry engine shared by every execution context.
//
// RetryLoop<Derived> implements txn()/try_txn() once: the DBX-style retry
// policy with per-abort-type budgets and a subscribed fallback lock (paper
// §4.2.1), plus the hardened-path mechanisms of DESIGN.md §10 (seeded-jitter
// backoff, anti-lemming lock waiting, spin-cap timeouts, the starvation
// escape, the HTM-health monitor) and the first-region-only deadline checks
// of DESIGN.md §15. A context derives from it (CRTP) and supplies only the
// backend hooks below; SimCtx and NativeCtx are the two backends, and tests
// drive the engine with a scripted one.
//
// Backend hooks (called as d().hook(...); private hooks need
// `friend class RetryLoop<Derived>`):
//   static constexpr bool kUnsubscribedRescue
//       whether RetryPolicy::lock_wait_timeout_limit may switch further
//       attempts to unsubscribed mode. Simulator-only: real RTM must stay
//       subscribed, so a native waiter keeps waiting for the release.
//   bool htm_available()
//       false: every txn() serializes on the fallback lock and try_txn()
//       returns committed=false without attempting anything.
//   bool htm_attempt(FallbackLock&, bool subscribe, Body&, htm::TxResult&)
//       one hardware transaction: begin, subscribe the lock word (when
//       `subscribe`; a held lock aborts with xabort_code::kFallbackLocked),
//       run the body, commit. Returns true on commit; otherwise fills the
//       decoded abort, with subscription aborts reported as kLockBusy.
//   bool lock_held(FallbackLock&)
//       one poll of the lock word outside any transaction.
//   void acquire_fallback(FallbackLock&), release_fallback(FallbackLock&)
//   void on_fallback_acquired()          (optional; default no-op)
//   std::uint64_t now()
//       the deadline and observer clock (sim cycles, native ns).
//   std::uint64_t wait_clock()
//       the lock-wait accounting clock (sim cycles, native pause units).
//   void pause(std::uint32_t n), void spin_pause()
//       wait n units / one spin-loop iteration.
//   void note_event(TraceCode, std::uint8_t, std::uint8_t)
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "ctx/common.hpp"
#include "htm/policy.hpp"
#include "obs/timeseries.hpp"
#include "util/rng.hpp"

namespace euno::ctx {

template <class Derived>
class RetryLoop {
 public:
  SiteStats& stats() { return stats_; }
  const SiteStats& stats() const { return stats_; }

  /// Observability sink for this thread (nullptr = off). The drivers hand
  /// each thread its own ThreadObs, so recording is lock-free.
  void set_observer(obs::ThreadObs* o) { obs_ = o; }
  obs::ThreadObs* observer() { return obs_; }

  /// True while the body runs under the fallback lock.
  bool in_fallback() const { return in_fallback_; }

  // ---- deadline propagation (DESIGN.md §15) ----

  /// Arm an absolute deadline (in now() units) for the ops issued through
  /// this context: once now() reaches it, txn()/try_txn() throw
  /// DeadlineExceeded from their next safe check point instead of spinning
  /// on. 0 disarms; disarmed (the default) costs one predictable branch.
  ///
  /// The unwind is only legal while the op holds no op-level state the ctx
  /// cannot release — which trees guarantee only up to their *first*
  /// transactional region (e.g. euno acquires CCM lock bits between its
  /// upper and lower regions; abandoning there would wedge the slot). So the
  /// checks stay live only until the first txn()/try_txn() since arming
  /// returns; past that the op runs to completion, bounding the overrun by
  /// one op rather than risking a stuck structure.
  void set_deadline(std::uint64_t abs) {
    deadline_ = abs;
    deadline_fresh_ = abs != 0;
  }
  void clear_deadline() {
    deadline_ = 0;
    deadline_fresh_ = false;
  }
  std::uint64_t deadline() const { return deadline_; }

  // ---- transactions ----

  /// Execute `body` atomically: hardware transaction with subscribed
  /// fallback lock, retrying per `policy`, serializing on `lock` when the
  /// budget is exhausted (or HTM is unavailable).
  template <class Body>
  TxnOutcome txn(TxSite site, FallbackLock& lock, const htm::RetryPolicy& policy,
                 Body&& body) {
    return run<true>(site, lock, policy, body);
  }

  /// HTM-only variant: identical retry structure, but budget exhaustion (or
  /// missing HTM) returns (committed=false) instead of serializing on the
  /// fallback lock. Multi-path policies (sync/three_path.hpp) use this to
  /// chain paths.
  template <class Body>
  TxnOutcome try_txn(TxSite site, FallbackLock& lock,
                     const htm::RetryPolicy& policy, Body&& body) {
    return run<false>(site, lock, policy, body);
  }

 protected:
  /// `id` seeds the jitter RNG, so hardened runs are deterministic and
  /// distinct across threads.
  explicit RetryLoop(int id)
      : jitter_rng_(0xB0FFull + 0x9E3779B97F4A7C15ull *
                                    (static_cast<std::uint64_t>(id) + 1)) {}

  void on_fallback_acquired() {}

 private:
  Derived& d() { return static_cast<Derived&>(*this); }

  /// Remaining per-reason retry budgets and the per-reason abort streaks
  /// that form the backoff exponent.
  struct Budgets {
    int conflict, capacity, other;
    std::uint32_t streak[static_cast<std::size_t>(htm::AbortReason::kCount)];

    explicit Budgets(const htm::RetryPolicy& p) { rearm(p); }
    void rearm(const htm::RetryPolicy& p) {
      conflict = p.conflict_retries;
      capacity = p.capacity_retries;
      other = p.other_retries;
      for (auto& s : streak) s = 0;
    }
    int& of(htm::AbortReason r) {
      if (r == htm::AbortReason::kConflict) return conflict;
      if (r == htm::AbortReason::kCapacity) return capacity;
      return other;
    }
  };

  template <bool kAllowFallback, class Body>
  TxnOutcome run(TxSite site, FallbackLock& lock, const htm::RetryPolicy& policy,
                 Body& body) {
    TxnOutcome out;
    auto& st = stats_.at(site);
    const auto site_arg = static_cast<std::uint8_t>(site);

    // Deadline checks sit outside HTM regions and critical sections, so the
    // throw never unwinds through either, and stay armed only through the
    // op's first transactional region; this guard retires them however the
    // region exits.
    struct DeadlineFreshReset {
      RetryLoop* l;
      ~DeadlineFreshReset() { l->deadline_fresh_ = false; }
    } deadline_reset{this};
    deadline_check(st);

    if constexpr (kAllowFallback) {
      // Permanent HTM-health degradation: straight to the lock.
      if (policy.health_window != 0 &&
          lock.degraded.load(std::memory_order_relaxed) != 0) {
        run_fallback(lock, st, out, body);
        return out;
      }
      // Fairness escape hatch: a thread that exhausted its budget on too many
      // consecutive operations serializes immediately — guaranteed progress.
      if (policy.starvation_threshold != 0 &&
          starved_ops_ >= policy.starvation_threshold) {
        st.starvation_escapes++;
        starved_ops_ = 0;
        d().note_event(TraceCode::kStarvationEscape, site_arg, 0);
        run_fallback(lock, st, out, body);
        health_note(lock, policy, st, 1, 0);
        return out;
      }
    }

    const bool use_htm = d().htm_available();
    if (use_htm) {
      Budgets left(policy);
      [[maybe_unused]] std::uint32_t wait_timeouts = 0;
      bool subscribe = true;
      // Attempts are timestamped only for an observer; with obs off the
      // per-attempt path reads no clock (DESIGN.md §13).
      const bool timed = obs_ != nullptr;
      for (;;) {
        // Never start while the fallback lock is held: the attempt would
        // abort on subscription. The naive policy camps on the line; the
        // anti-lemming policy polls it with exponentially spaced jittered
        // delays, then after the release waits a jittered grace period and
        // re-arms the retry budget instead of stampeding with the rest of
        // the convoy. Each episode is bounded by lock_wait_spin_cap polls:
        // hitting the cap counts a timeout, and (simulator only) after
        // lock_wait_timeout_limit timed-out episodes further attempts run
        // unsubscribed so a leaked lock cannot hang the thread.
        if (subscribe) {
          bool waited = false;
          const std::uint64_t w0 = d().wait_clock();
          std::uint32_t polls = 0;
          std::uint32_t poll_delay = policy.backoff_base;
          while (d().lock_held(lock)) {
            waited = true;
            if (deadline_fresh_ && d().now() >= deadline_) {
              // Account this partial episode before leaving the lock queue.
              st.lock_wait_cycles += d().wait_clock() - w0;
              deadline_check(st);
            }
            if (++polls >= policy.lock_wait_spin_cap) {
              polls = 0;
              st.lock_wait_timeouts++;
              d().note_event(TraceCode::kLockWaitTimeout, site_arg, 0);
              if constexpr (Derived::kUnsubscribedRescue) {
                if (policy.lock_wait_timeout_limit != 0 &&
                    ++wait_timeouts >= policy.lock_wait_timeout_limit) {
                  subscribe = false;
                  break;
                }
              }
            }
            if (policy.anti_lemming) {
              d().pause(jitter(poll_delay));
              poll_delay = std::min(poll_delay * 2, policy.backoff_cap);
            } else {
              d().spin_pause();
            }
          }
          if (waited) {
            st.lock_wait_cycles += d().wait_clock() - w0;
            if (policy.anti_lemming && subscribe) {
              const std::uint32_t g =
                  policy.rearm_grace != 0
                      ? static_cast<std::uint32_t>(
                            jitter_rng_.next_bounded(policy.rearm_grace + 1))
                      : 0;
              if (g != 0) {
                st.backoff_cycles += g;
                d().pause(g);
              }
              left.rearm(policy);
            }
          }
        }

        st.attempts++;
        if (!subscribe) st.unsubscribed_attempts++;
        const std::uint64_t t0 = timed ? d().now() : 0;
        d().note_event(TraceCode::kTxBegin, site_arg, 0);
        htm::TxResult r{};
        if (d().htm_attempt(lock, subscribe, body, r)) {
          st.commits++;
          d().note_event(TraceCode::kTxCommit, site_arg, 0);
          if (policy.starvation_threshold != 0) starved_ops_ = 0;
          health_note(lock, policy, st, out.aborts + 1, 1);
          out.committed = true;
          return out;
        }
        if (timed) {
          const std::uint64_t t1 = d().now();
          obs_->abort_wasted.record(t1 - t0);
          obs_->series.note_abort(t1);
        }
        st.note_abort(r);
        out.aborts++;
        d().note_event(TraceCode::kAbort, static_cast<std::uint8_t>(r.reason),
                       static_cast<std::uint8_t>(r.conflict));
        // The attempt never really ran: wait for the release, free of charge.
        if (r.reason == htm::AbortReason::kLockBusy) continue;
        if (--left.of(r.reason) < 0) {
          if constexpr (!kAllowFallback) break;
          if (subscribe) break;
          // The unsubscribed rescue cannot serialize on the fallback lock —
          // that lock is exactly what never came free — so re-arm and keep
          // trying under HTM (strong atomicity keeps this sound).
          left.rearm(policy);
        }
        // Between attempts is the cheapest place to notice a blown deadline:
        // nothing is held, nothing is open.
        deadline_check(st);
        // Seeded-jitter exponential backoff per abort reason, desynchronizing
        // mutually-destructive retry storms. Capacity aborts never back off
        // (the footprint does not shrink by waiting).
        if (policy.backoff && r.reason != htm::AbortReason::kCapacity) {
          const std::uint32_t n =
              ++left.streak[static_cast<std::size_t>(r.reason)];
          std::uint64_t delay = static_cast<std::uint64_t>(policy.backoff_base)
                                << std::min<std::uint32_t>(n - 1, 16);
          delay = std::min<std::uint64_t>(delay, policy.backoff_cap);
          const std::uint32_t j = jitter(static_cast<std::uint32_t>(delay));
          st.backoff_cycles += j;
          d().pause(j);
        }
      }
    } else if constexpr (kAllowFallback) {
      st.attempts++;
    }

    if constexpr (kAllowFallback) {
      // Last exit before joining the fallback queue: a doomed op sheds here
      // rather than contending for a lock it can no longer afford.
      deadline_check(st);
      if (use_htm && policy.starvation_threshold != 0) starved_ops_++;
      run_fallback(lock, st, out, body);
      health_note(lock, policy, st, out.aborts + 1, 0);
    }
    return out;
  }

  /// Acquire the fallback lock (the acquiring write aborts every subscribed
  /// transaction), run the body serially, release.
  template <class Body>
  void run_fallback(FallbackLock& lock, htm::TxStats& st, TxnOutcome& out,
                    Body& body) {
    d().acquire_fallback(lock);
    st.fallbacks++;
    if (obs_ != nullptr) obs_->series.note_fallback(d().now());
    d().note_event(TraceCode::kFallback, 0, 0);
    d().note_event(TraceCode::kFallbackAcquired, 0, 0);
    d().on_fallback_acquired();
    in_fallback_ = true;
    body();
    in_fallback_ = false;
    d().release_fallback(lock);
    d().note_event(TraceCode::kFallbackReleased, 0, 0);
    st.commits++;
    out.used_fallback = true;
    out.committed = true;
  }

  /// HTM-health monitor (DESIGN.md §10): feed the tree-global window with
  /// `attempts` resolved tx attempts, of which `commits` committed under
  /// HTM. When a full window's commit rate stays below the threshold,
  /// permanently degrade the tree to lock-only mode; the CAS makes exactly
  /// one thread the flipper. Plain relaxed atomics off the transactional
  /// path (zero simulated cost); windows race benignly (a concurrent reset
  /// only delays the verdict).
  void health_note(FallbackLock& lock, const htm::RetryPolicy& policy,
                   htm::TxStats& st, std::uint64_t attempts,
                   std::uint64_t commits) {
    if (policy.health_window == 0) return;
    if (lock.degraded.load(std::memory_order_relaxed) != 0) return;
    const std::uint64_t a =
        lock.health_attempts.fetch_add(attempts, std::memory_order_relaxed) +
        attempts;
    const std::uint64_t c =
        lock.health_commits.fetch_add(commits, std::memory_order_relaxed) +
        commits;
    if (a < policy.health_window) return;
    if (c * 100 < a * policy.health_min_commit_pct) {
      std::uint32_t expected = 0;
      if (lock.degraded.compare_exchange_strong(expected, 1,
                                                std::memory_order_relaxed)) {
        st.degradations++;
        d().note_event(TraceCode::kHtmDegraded, 0, 0);
      }
    } else {
      // Healthy window: start a new one.
      lock.health_attempts.store(0, std::memory_order_relaxed);
      lock.health_commits.store(0, std::memory_order_relaxed);
    }
  }

  /// Throws when the armed deadline has passed. Only live while
  /// deadline_fresh_: an op that already completed a transactional region
  /// may hold tree-level state (CCM lock bits, clones) that the ctx cannot
  /// release.
  void deadline_check(htm::TxStats& st) {
    if (deadline_fresh_ && d().now() >= deadline_) {
      st.deadline_exceeded++;
      d().note_event(TraceCode::kDeadlineExceeded, 0, 0);
      throw DeadlineExceeded{};
    }
  }

  /// Seeded jitter: uniform in [d/2, d] so backed-off threads desynchronize.
  std::uint32_t jitter(std::uint32_t delay) {
    if (delay <= 1) return delay;
    return delay / 2 + static_cast<std::uint32_t>(
                           jitter_rng_.next_bounded(delay / 2 + 1));
  }

  SiteStats stats_{};
  obs::ThreadObs* obs_ = nullptr;
  bool in_fallback_ = false;
  std::uint32_t starved_ops_ = 0;  // consecutive ops that exhausted the budget
  std::uint64_t deadline_ = 0;     // absolute deadline in now() units; 0 = off
  // Deadline throws are armed per op and retired by the first txn region
  // (see set_deadline); cleared even when that region itself throws.
  bool deadline_fresh_ = false;
  Xoshiro256 jitter_rng_;
};

}  // namespace euno::ctx
