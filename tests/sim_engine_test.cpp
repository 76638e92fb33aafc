// Tests for the simulated-multicore engine: fiber scheduling order, clock
// accounting, determinism, arena allocation, and the coherence cost model.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/event.hpp"
#include "sim/arena.hpp"
#include "sim/engine.hpp"
#include "sim/memmodel.hpp"
#include "util/rng.hpp"

namespace euno::sim {
namespace {

MachineConfig small_config() {
  MachineConfig cfg;
  cfg.arena_bytes = 16ull << 20;
  return cfg;
}

TEST(Arena, AllocationsAreLineAlignedAndDisjoint) {
  SharedArena arena(1 << 20);
  void* a = arena.alloc(10, MemClass::kOther, LineKind::kOther);
  void* b = arena.alloc(10, MemClass::kOther, LineKind::kOther);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
  EXPECT_NE(arena.line_index(a), arena.line_index(b));
}

TEST(Arena, FreeListReuse) {
  SharedArena arena(1 << 20);
  void* a = arena.alloc(64, MemClass::kOther, LineKind::kOther);
  arena.free(a, 64, MemClass::kOther);
  void* b = arena.alloc(64, MemClass::kOther, LineKind::kOther);
  EXPECT_EQ(a, b);
}

TEST(Arena, AllocZeroesMemory) {
  SharedArena arena(1 << 20);
  auto* p = static_cast<std::uint64_t*>(
      arena.alloc(64, MemClass::kOther, LineKind::kOther));
  p[0] = 0xdead;
  arena.free(p, 64, MemClass::kOther);
  auto* q = static_cast<std::uint64_t*>(
      arena.alloc(64, MemClass::kOther, LineKind::kOther));
  EXPECT_EQ(q[0], 0u);
}

TEST(Arena, TagsCoverAllLines) {
  SharedArena arena(1 << 20);
  void* p = arena.alloc(200, MemClass::kOther, LineKind::kRecord);
  for (std::size_t off = 0; off < 200; off += 64) {
    EXPECT_EQ(arena.line_of(static_cast<char*>(p) + off).kind, LineKind::kRecord);
  }
}

TEST(Arena, ContainsChecksBounds) {
  SharedArena arena(1 << 20);
  void* p = arena.alloc(64, MemClass::kOther, LineKind::kOther);
  EXPECT_TRUE(arena.contains(p));
  int local;
  EXPECT_FALSE(arena.contains(&local));
}

TEST(Engine, FibersRunToCompletion) {
  Simulation sim(small_config());
  std::vector<int> order;
  sim.spawn(0, [&](int core) { order.push_back(core); });
  sim.spawn(1, [&](int core) { order.push_back(core); });
  sim.run();
  EXPECT_EQ(order.size(), 2u);
}

TEST(Engine, MinClockFiberRunsFirst) {
  Simulation sim(small_config());
  std::vector<std::pair<int, std::uint64_t>> events;
  // Fiber 0 does expensive steps, fiber 1 cheap steps; the interleaving must
  // honour simulated time: fiber 1 gets many steps in while fiber 0 is
  // "busy".
  sim.spawn(0, [&](int) {
    for (int i = 0; i < 3; ++i) {
      sim.charge(1000);
      events.push_back({0, sim.clock_of(0)});
    }
  });
  sim.spawn(1, [&](int) {
    for (int i = 0; i < 3; ++i) {
      sim.charge(10);
      events.push_back({1, sim.clock_of(1)});
    }
  });
  sim.run();
  ASSERT_EQ(events.size(), 6u);
  // All of fiber 1's events (clocks 10,20,30) precede fiber 0's second event
  // (clock 2000).
  std::uint64_t fiber1_last_pos = 0, fiber0_second_pos = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].first == 1) fiber1_last_pos = i;
    if (events[i].first == 0 && events[i].second == 2000) fiber0_second_pos = i;
  }
  EXPECT_LT(fiber1_last_pos, fiber0_second_pos);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulation sim(small_config());
    auto* cell = static_cast<std::uint64_t*>(
        sim.arena().alloc(8, MemClass::kOther, LineKind::kOther));
    for (int core = 0; core < 4; ++core) {
      sim.spawn(core, [&sim, cell](int c) {
        for (int i = 0; i < 100; ++i) {
          sim.mem_access(cell, 8, true);
          *cell += static_cast<std::uint64_t>(c) + 1;
        }
      });
    }
    sim.run();
    return std::make_pair(*cell, sim.max_clock());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Engine, ChargeAccumulatesPerCore) {
  Simulation sim(small_config());
  sim.spawn(0, [&](int) { sim.charge(123); });
  sim.spawn(1, [&](int) { sim.charge(456); });
  sim.run();
  EXPECT_EQ(sim.clock_of(0), 123u);
  EXPECT_EQ(sim.clock_of(1), 456u);
  EXPECT_EQ(sim.max_clock(), 456u);
}

TEST(Engine, ComputeCountsInstructions) {
  Simulation sim(small_config());
  sim.spawn(0, [&](int) { sim.compute(50); });
  sim.run();
  EXPECT_EQ(sim.counters(0).instructions, 50u);
  EXPECT_EQ(sim.clock_of(0), 50u);
}

TEST(Engine, MemAccessOutsideFiberIsFree) {
  Simulation sim(small_config());
  auto* cell = static_cast<std::uint64_t*>(
      sim.arena().alloc(8, MemClass::kOther, LineKind::kOther));
  sim.mem_access(cell, 8, true);  // must not crash or charge anything
  *cell = 5;
  EXPECT_EQ(sim.max_clock(), 0u);
}

// ---- interleaving against a linear-scan reference ----

constexpr int kInterleaveFibers = 16;

/// Spawn index -> simulated core: a permutation, so tie-breaks on the spawn
/// index are told apart from tie-breaks on the core id.
int core_of_index(int i) { return (i * 5) % kInterleaveFibers; }

/// Seeded per-fiber charge lists: charges are multiples of 10 (equal-clock
/// ties are common) and lengths are uneven (some fibers finish early).
std::vector<std::vector<std::uint64_t>> interleave_charges(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::vector<std::uint64_t>> charges(kInterleaveFibers);
  for (auto& list : charges) {
    const std::uint64_t len =
        rng.next_bounded(4) == 0 ? 1 + rng.next_bounded(5)
                                 : 20 + rng.next_bounded(200);
    for (std::uint64_t k = 0; k < len; ++k) {
      list.push_back(10 * (1 + rng.next_bounded(3)));
    }
  }
  return charges;
}

struct Slice {
  int core;
  std::uint64_t begin, end;
  bool operator==(const Slice&) const = default;
};

struct Interleaving {
  std::vector<std::pair<int, std::uint64_t>> charges;  // (core, clock) order
  std::vector<Slice> slices;                           // run slices, in order
};

/// The scheduling rule, written as plainly as possible: always run the
/// runnable fiber with the smallest (clock, spawn index); it keeps running
/// while its clock stays <= the smallest other runnable clock, and yields
/// once a charge takes it strictly past that. A charge is observed when its
/// fiber next runs (charge() returns only then).
Interleaving reference_interleaving(
    const std::vector<std::vector<std::uint64_t>>& charges) {
  const int n = static_cast<int>(charges.size());
  std::vector<std::uint64_t> clock(static_cast<std::size_t>(n), 0);
  std::vector<std::size_t> pos(static_cast<std::size_t>(n), 0);
  std::vector<bool> done(static_cast<std::size_t>(n), false);
  const auto pick = [&](int skip) {
    int best = -1;
    for (int i = 0; i < n; ++i) {
      if (done[static_cast<std::size_t>(i)] || i == skip) continue;
      if (best < 0 || clock[static_cast<std::size_t>(i)] <
                          clock[static_cast<std::size_t>(best)]) {
        best = i;
      }
    }
    return best;
  };
  Interleaving out;
  for (int cur = pick(-1); cur >= 0; cur = pick(-1)) {
    const auto c = static_cast<std::size_t>(cur);
    Slice slice{core_of_index(cur), clock[c], 0};
    for (;;) {
      if (pos[c] > 0) out.charges.push_back({core_of_index(cur), clock[c]});
      if (pos[c] == charges[c].size()) {
        done[c] = true;
        break;
      }
      clock[c] += charges[c][pos[c]++];
      const int other = pick(cur);
      if (other >= 0 && clock[c] > clock[static_cast<std::size_t>(other)]) {
        break;
      }
    }
    slice.end = clock[c];
    out.slices.push_back(slice);
  }
  return out;
}

Interleaving engine_interleaving(
    const std::vector<std::vector<std::uint64_t>>& charges, bool trace,
    std::uint64_t* switches) {
  Simulation sim(small_config());
  if (trace) sim.enable_trace();
  Interleaving out;
  for (int i = 0; i < kInterleaveFibers; ++i) {
    const auto& list = charges[static_cast<std::size_t>(i)];
    sim.spawn(core_of_index(i), [&sim, &out, &list](int core) {
      for (const std::uint64_t c : list) {
        sim.charge(c);
        out.charges.push_back({core, sim.clock_of(core)});
      }
    });
  }
  sim.run();
  *switches = sim.switches();
  // Per core, the trace's kRunBegin/kRunEnd pairs are that core's slices;
  // the reference's global slice order restricted to one core must match.
  std::vector<Slice> open(MachineConfig::kMaxCores);
  for (const TraceEvent& e : sim.trace_events()) {
    const auto code = static_cast<obs::EventCode>(e.code);
    if (code == obs::EventCode::kRunBegin) {
      open[e.core] = Slice{e.core, e.clock, 0};
    } else if (code == obs::EventCode::kRunEnd) {
      open[e.core].end = e.clock;
      out.slices.push_back(open[e.core]);
    }
  }
  return out;
}

std::vector<Slice> slices_of_core(const std::vector<Slice>& all, int core) {
  std::vector<Slice> mine;
  for (const Slice& s : all) {
    if (s.core == core) mine.push_back(s);
  }
  return mine;
}

TEST(Engine, InterleavingMatchesLinearScanReference) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 42ull}) {
    SCOPED_TRACE(seed);
    const auto charges = interleave_charges(seed);
    const Interleaving ref = reference_interleaving(charges);
    std::uint64_t switches = 0;
    const Interleaving got = engine_interleaving(charges, false, &switches);
    EXPECT_EQ(got.charges, ref.charges);
    EXPECT_EQ(switches, ref.slices.size());
    EXPECT_GT(ref.slices.size(), 100u);  // the schedule really interleaves
  }
}

TEST(Engine, TracedRunSlicesMatchReferenceSwitchPoints) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  for (const std::uint64_t seed : {1ull, 7ull}) {
    SCOPED_TRACE(seed);
    const auto charges = interleave_charges(seed);
    const Interleaving ref = reference_interleaving(charges);
    std::uint64_t switches = 0;
    const Interleaving got = engine_interleaving(charges, true, &switches);
    EXPECT_EQ(got.charges, ref.charges);  // tracing never moves the schedule
    EXPECT_EQ(switches, ref.slices.size());
    ASSERT_EQ(got.slices.size(), ref.slices.size());
    for (int core = 0; core < kInterleaveFibers; ++core) {
      EXPECT_EQ(slices_of_core(got.slices, core),
                slices_of_core(ref.slices, core))
          << "core " << core;
    }
  }
}

TEST(CostModel, FirstTouchIsDram) {
  MachineConfig cfg;
  LineState line;
  EXPECT_EQ(coherence_access(line, 0, false, cfg), cfg.latency.dram);
}

TEST(CostModel, RepeatAccessIsL1) {
  MachineConfig cfg;
  LineState line;
  coherence_access(line, 0, true, cfg);
  EXPECT_EQ(coherence_access(line, 0, true, cfg), cfg.latency.l1_hit);
  EXPECT_EQ(coherence_access(line, 0, false, cfg), cfg.latency.l1_hit);
}

TEST(CostModel, CrossCoreSameSocketTransfer) {
  MachineConfig cfg;
  LineState line;
  coherence_access(line, 0, true, cfg);  // core 0 dirties
  EXPECT_EQ(coherence_access(line, 1, false, cfg), cfg.latency.local_cache);
}

TEST(CostModel, CrossSocketTransferCostsMore) {
  MachineConfig cfg;
  LineState line;
  coherence_access(line, 0, true, cfg);  // core 0 (socket 0) dirties
  // Core 10 is on socket 1 in the paper testbed topology.
  EXPECT_EQ(coherence_access(line, 10, false, cfg), cfg.latency.remote_cache);
}

TEST(CostModel, WriteInvalidatesSharers) {
  MachineConfig cfg;
  LineState line;
  coherence_access(line, 0, true, cfg);
  coherence_access(line, 1, false, cfg);  // now shared by 0 and 1
  EXPECT_NE(line.sharers & 0b11u, 0u);
  coherence_access(line, 2, true, cfg);  // write invalidates others
  EXPECT_EQ(line.sharers, 0b100u);
  EXPECT_EQ(line.owner, 2);
  EXPECT_TRUE(line.dirty);
}

TEST(CostModel, ReadDowngradesDirtyLine) {
  MachineConfig cfg;
  LineState line;
  coherence_access(line, 0, true, cfg);
  EXPECT_TRUE(line.dirty);
  coherence_access(line, 1, false, cfg);
  EXPECT_FALSE(line.dirty);
}

}  // namespace
}  // namespace euno::sim
