// Linearizability-test harness: run a workload on any tree under a schedule
// policy, record the operation history, check it.
//
// The harness names a tree by its slug (LinSpec::tree) and builds it through
// a factory of TreeEntry's type that the caller resolves: lin_test and
// lin_explore look the slug up in trees::checked_trees() (the registry plus
// trees/variants.hpp). The harness itself never touches the registry, and
// the euno_check library compiles no tree code, so the mutation self-test
// (tests/lin_mutation_test.cpp) can instantiate deliberately broken trees
// from trees/factories.hpp in its own translation unit without ever linking
// the healthy instantiations (ODR).
//
// A LinSpec is fully replayable: to_string()/parse() round-trip every knob
// including the schedule policy, so a failing run is reproduced with
//   lin_explore --replay='<spec string>'
// and the same seed deterministically re-derives the same interleaving.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/history.hpp"
#include "check/linearize.hpp"
#include "ctx/sim_ctx.hpp"
#include "sim/engine.hpp"
#include "sim/schedule.hpp"
#include "trees/registry.hpp"
#include "util/rng.hpp"

namespace euno::check {

enum class LinPattern {
  /// Uniform random put/get/erase/scan over a small hot key range.
  kUniformMix,
  /// Core 0 inserts ascending odd keys between preloaded even keys, forcing
  /// leaf splits; the other cores read preloaded keys. Preloaded keys are
  /// never modified, so any get that misses one (the classic
  /// read-during-split race) is an immediate violation.
  kSplitRace,
};

inline const char* lin_pattern_name(LinPattern p) {
  return p == LinPattern::kUniformMix ? "mix" : "splitrace";
}

/// One linearizability run, fully specified and replayable.
struct LinSpec {
  /// Tree slug (a registry entry or a trees/variants.hpp variant).
  std::string tree = "euno-markbits";
  /// Run under the hardened retry policy with a hair-trigger HTM-health
  /// monitor (any abort in a full window degrades the tree to lock-only), so
  /// the run exercises a mid-run degradation flip under the checker.
  bool degrade = false;
  LinPattern pattern = LinPattern::kUniformMix;
  int threads = 3;
  int ops_per_thread = 40;
  std::uint64_t key_range = 16;  // kUniformMix hot range
  std::uint64_t preload = 8;     // preloaded keys (kSplitRace: even slots)
  std::uint64_t workload_seed = 1;
  sim::SchedulePolicy sched{};
  std::uint64_t arena_bytes = 64ull << 20;

  /// Replayable, parse()-invertible spec string (';'-separated because the
  /// schedule policy string uses ',').
  std::string to_string() const {
    std::string s;
    s += "tree=" + tree;
    s += degrade ? ";degrade=1" : "";
    s += ";pattern=";
    s += lin_pattern_name(pattern);
    s += ";threads=" + std::to_string(threads);
    s += ";ops=" + std::to_string(ops_per_thread);
    s += ";keys=" + std::to_string(key_range);
    s += ";preload=" + std::to_string(preload);
    s += ";wseed=" + std::to_string(workload_seed);
    s += ";arena=" + std::to_string(arena_bytes);
    s += ";sched=" + sched.to_string();
    return s;
  }

  /// Rejects a malformed string and a slug that names none of `known`.
  static std::optional<LinSpec> parse(
      const std::string& str, const std::vector<trees::TreeEntry>& known) {
    LinSpec spec;
    std::size_t pos = 0;
    while (pos <= str.size()) {
      std::size_t semi = str.find(';', pos);
      if (semi == std::string::npos) semi = str.size();
      const std::string tok = str.substr(pos, semi - pos);
      pos = semi + 1;
      if (tok.empty()) {
        if (pos > str.size()) break;
        return std::nullopt;
      }
      const std::size_t eq = tok.find('=');
      if (eq == std::string::npos) return std::nullopt;
      const std::string key = tok.substr(0, eq);
      const std::string val = tok.substr(eq + 1);
      if (key == "tree") {
        if (trees::find_tree(known, val) == nullptr) return std::nullopt;
        spec.tree = val;
      } else if (key == "degrade") {
        spec.degrade = val == "1";
      } else if (key == "pattern") {
        if (val == "mix") spec.pattern = LinPattern::kUniformMix;
        else if (val == "splitrace") spec.pattern = LinPattern::kSplitRace;
        else return std::nullopt;
      } else if (key == "threads") {
        spec.threads = std::atoi(val.c_str());
      } else if (key == "ops") {
        spec.ops_per_thread = std::atoi(val.c_str());
      } else if (key == "keys") {
        spec.key_range = std::strtoull(val.c_str(), nullptr, 10);
      } else if (key == "preload") {
        spec.preload = std::strtoull(val.c_str(), nullptr, 10);
      } else if (key == "wseed") {
        spec.workload_seed = std::strtoull(val.c_str(), nullptr, 10);
      } else if (key == "arena") {
        spec.arena_bytes = std::strtoull(val.c_str(), nullptr, 10);
      } else if (key == "sched") {
        auto p = sim::SchedulePolicy::parse(val);
        if (!p) return std::nullopt;
        spec.sched = *p;
      } else {
        return std::nullopt;
      }
      if (pos > str.size()) break;
    }
    if (spec.threads < 1 || spec.ops_per_thread < 0) return std::nullopt;
    return spec;
  }

  /// gtest-safe name (alphanumerics and underscores only).
  std::string name() const {
    std::string s = to_string();
    std::string out;
    out.reserve(s.size());
    bool last_us = false;
    for (char c : s) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9');
      if (ok) {
        out += c;
        last_us = false;
      } else if (!last_us && !out.empty()) {
        out += '_';
        last_us = true;
      }
    }
    while (!out.empty() && out.back() == '_') out.pop_back();
    return out;
  }
};

/// Preload value convention: a pure function of the key, disjoint from the
/// per-op unique values below (those have a nonzero high word).
inline Value lin_preload_value(Key k) { return k * 7 + 1; }

/// Unique per-operation put value: (core+1) in the high word, the op index
/// in the low word. Unique values make every stale read distinguishable.
inline Value lin_put_value(int core, int op_index) {
  return (static_cast<Value>(core + 1) << 32) |
         static_cast<Value>(op_index + 1);
}

struct LinRun {
  std::vector<HistoryEvent> history;
  CheckResult check;
  std::vector<sim::ScheduleDecision> decisions;
  bool truncated = false;
  std::uint64_t max_clock = 0;
  /// HTM-health degradation flips observed across all cores (spec.degrade).
  std::uint64_t degradations = 0;
};

/// The policy a degrade run executes under: hardened retry path plus a
/// hair-trigger health monitor — with min_commit_pct at 100, the first
/// window containing any abort flips the tree to lock-only mode.
inline htm::RetryPolicy lin_degrade_policy() {
  htm::RetryPolicy p = htm::RetryPolicy::hardened();
  p.health_window = 16;
  p.health_min_commit_pct = 100;
  return p;
}

/// Execute one run: build the tree with `make_sim` (the factory spec.tree
/// names), preload, run the per-core workload under spec.sched recording the
/// history, then check it. Also runs the tree's own structural
/// check_invariants() (throws on corruption).
inline LinRun run_lin(const LinSpec& spec,
                      trees::TreeFactory<ctx::SimCtx> make_sim) {
  sim::MachineConfig mc;
  mc.arena_bytes = spec.arena_bytes;
  sim::Simulation simulation(mc);
  simulation.set_schedule_policy(spec.sched);
  ctx::SimCtx setup(simulation, 0);
  trees::TreeBuildOptions build;
  if (spec.degrade) build.policy = lin_degrade_policy();
  const std::unique_ptr<trees::AnyTree<ctx::SimCtx>> owned =
      make_sim(setup, build);
  trees::AnyTree<ctx::SimCtx>& tree = *owned;
  HistoryRecorder rec(spec.threads);
  std::vector<ctx::SiteStats> stats(static_cast<std::size_t>(spec.threads));

  // kSplitRace places preloads at even slots so the writer can insert the
  // odd keys between them; kUniformMix preloads a prefix of the hot range.
  const bool split_race = spec.pattern == LinPattern::kSplitRace;
  for (std::uint64_t i = 0; i < spec.preload; ++i) {
    const Key k = split_race ? 2 * i : i;
    tree.put(setup, k, lin_preload_value(k));
    rec.record_preload(k, lin_preload_value(k), simulation.global_step());
  }

  // kSplitRace frontier hint: host-side (uninstrumented) is safe — all
  // fibers share one OS thread — and deliberately invisible to the
  // simulated memory system, so readers aim near the writer's frontier
  // without creating extra simulated conflicts.
  auto next_insert = std::make_shared<std::uint64_t>(1);

  for (int t = 0; t < spec.threads; ++t) {
    simulation.spawn(t, [&simulation, &tree, &rec, &spec, &stats, next_insert,
                         split_race, t](int core) {
      ctx::SimCtx c(simulation, core);
      Xoshiro256 rng(spec.workload_seed * 1000003 + static_cast<std::uint64_t>(t));
      std::vector<KV> buf(8);
      for (int i = 0; i < spec.ops_per_thread; ++i) {
        HistoryEvent ev;
        ev.core = core;
        if (split_race) {
          if (core == 0) {
            const Key k = *next_insert;
            *next_insert = k + 2;
            ev.op = OpKind::kPut;
            ev.key = k;
            ev.value = lin_put_value(core, i);
            ev.inv = simulation.global_step();
            tree.put(c, ev.key, ev.value);
            ev.res = simulation.global_step();
          } else {
            // Read a preloaded (immutable) key near the split frontier.
            const std::uint64_t hi =
                std::min<std::uint64_t>(*next_insert / 2 + 1, spec.preload);
            const std::uint64_t lo = hi > 4 ? hi - 4 : 0;
            const std::uint64_t span = hi > lo ? hi - lo : 1;
            ev.op = OpKind::kGet;
            ev.key = 2 * (lo + rng.next_bounded(span));
            Value v = 0;
            ev.inv = simulation.global_step();
            ev.found = tree.get(c, ev.key, &v);
            ev.res = simulation.global_step();
            ev.value = v;
          }
        } else {
          ev.key = rng.next_bounded(spec.key_range);
          const auto roll = rng.next_bounded(10);
          if (roll < 3) {
            ev.op = OpKind::kPut;
            ev.value = lin_put_value(core, i);
            ev.inv = simulation.global_step();
            tree.put(c, ev.key, ev.value);
            ev.res = simulation.global_step();
          } else if (roll < 7) {
            ev.op = OpKind::kGet;
            Value v = 0;
            ev.inv = simulation.global_step();
            ev.found = tree.get(c, ev.key, &v);
            ev.res = simulation.global_step();
            ev.value = v;
          } else if (roll < 9) {
            ev.op = OpKind::kErase;
            ev.inv = simulation.global_step();
            ev.found = tree.erase(c, ev.key);
            ev.res = simulation.global_step();
          } else {
            ev.op = OpKind::kScan;
            ev.limit = static_cast<std::uint32_t>(buf.size());
            ev.inv = simulation.global_step();
            const std::size_t n = tree.scan(c, ev.key, buf.size(), buf.data());
            ev.res = simulation.global_step();
            ev.scan_out.assign(buf.begin(),
                               buf.begin() + static_cast<std::ptrdiff_t>(n));
          }
        }
        rec.record(core, std::move(ev));
      }
      stats[static_cast<std::size_t>(t)] = c.stats();
    });
  }
  simulation.run();

  LinRun out;
  for (const auto& s : stats) out.degradations += s.total().degradations;
  out.history = rec.merged();
  out.decisions = simulation.schedule_decisions();
  out.truncated = simulation.schedule_truncated();
  out.max_clock = simulation.max_clock();
  tree.check_invariants();
  out.check = check_history(out.history);
  tree.destroy(setup);
  return out;
}

/// One-line repro command for a failing spec.
inline std::string lin_repro_line(const LinSpec& spec) {
  return "bench/lin_explore --replay='" + spec.to_string() + "'";
}

}  // namespace euno::check
