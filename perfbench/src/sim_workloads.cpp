// Simulated workloads: sim-hot (closed loop, one Euno-B+Tree) and
// sim-store-load (open loop against a ShardedStore of Euno-B+Trees).
//
// Both run their own copy of the measured loop through the public API —
// registry factories, ShardedStore::execute, Simulation::spawn/run,
// OpStream/ArrivalStream — and must reproduce driver::run_sim_experiment bit
// for bit on the same spec (cross_check below). Simulated quantities are a
// pure function of the spec, so a run repeats each spec until its time is
// up: the simulated metrics come from the first repetition of each spec and
// every later repetition must match it exactly, while the host-side timings
// (set-up, host ns per simulated op) are medians over all repetitions.
#include <cinttypes>
#include <cstdio>
#include <optional>

#include "common.hpp"
#include "ctx/sim_ctx.hpp"
#include "driver/experiment.hpp"
#include "obs/histogram.hpp"
#include "sim/engine.hpp"
#include "store/sharded_store.hpp"
#include "util/memstats.hpp"
#include "util/rng.hpp"
#include "workload/openloop.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using euno::ctx::SimCtx;
using euno::driver::ExperimentResult;
using euno::driver::ExperimentSpec;
using euno::htm::AbortReason;
using euno::htm::ConflictKind;
using euno::obs::LatencyHistogram;
using euno::store::StoreStatus;
using euno::workload::Op;
using euno::workload::OpType;

/// Distinct workload seeds per run; their results are pooled so one run's
/// figures do not hinge on a single key stream.
constexpr int kSubSeeds = 3;

/// Simulated core clock (the paper's testbed), for cycles -> time.
constexpr double kGhz = 2.3;

/// Offered rates of sim-store-load, in Mops/s: below, near and above the
/// store's closed-loop capacity (24.9 Mops for this spec run closed loop).
constexpr double kRateLo = 12;
constexpr double kRateMid = 22;
constexpr double kRateHi = 45;
/// Grid searched for max_rate_mops, and the limits a rate must meet.
constexpr double kRateGrid[] = {10, 12, 14, 16, 18, 20, 22, 25, 30, 45};
constexpr double kSojournLimitUs = 25;
constexpr double kFailLimit = 0.01;

std::uint64_t sub_seed(std::uint64_t seed, int j) {
  return euno::SplitMix64(seed * 0x9E3779B97F4A7C15ull +
                          static_cast<std::uint64_t>(j))
      .next();
}

const euno::trees::TreeEntry& tree_entry(const char* slug) {
  const euno::trees::TreeEntry* e = euno::trees::tree_registry().by_name(slug);
  if (e == nullptr) {
    std::fprintf(stderr, "perfbench: tree '%s' is not registered\n", slug);
    std::exit(2);
  }
  return *e;
}

/// Common simulated set-up: the figures' machine and preload (half the key
/// range at stride 2), 16 simulated cores.
ExperimentSpec base_spec(std::uint64_t seed) {
  ExperimentSpec s;
  s.tree = tree_entry("euno").kind;
  s.workload.key_range = 1u << 20;
  s.workload.dist = euno::workload::DistKind::kZipfian;
  s.workload.seed = seed;
  s.preload = s.workload.key_range / 2;
  s.preload_stride = 2;
  s.threads = 16;
  s.ghz = kGhz;
  s.machine.arena_bytes = 3ull << 30;
  return s;
}

/// sim-hot: the Figure 8 high-contention point.
ExperimentSpec hot_spec(std::uint64_t seed, bool quick) {
  ExperimentSpec s = base_spec(seed);
  s.workload.dist_param = 0.99;
  s.workload.scramble = false;
  s.workload.mix = euno::workload::OpMix{50, 50, 0, 0};
  s.ops_per_thread = quick ? 700 : 4000;
  return s;
}

/// sim-store-load at one offered rate, with the hardened admission
/// configuration. Every knob is an absolute value: nothing is re-probed.
ExperimentSpec store_spec(std::uint64_t seed, double rate_mops, bool quick) {
  ExperimentSpec s = base_spec(seed);
  s.workload.dist_param = 0.5;
  s.workload.scramble = true;
  s.workload.mix = euno::workload::OpMix{95, 5, 0, 0};
  s.ops_per_thread = quick ? 700 : 2000;
  s.store.shards = 8;
  s.store.offered_load_mops = rate_mops;
  s.store.shedding = true;
  s.store.shard_rate_mops = 3.125;  // 25 Mops (capacity) over 8 shards
  s.store.burst = 32;
  s.store.inflight_limit = 32;  // 2 x clients
  s.store.shed_on_pct = 40;
  s.store.degrade_windows = 64;
  s.store.deadline_us = 6;  // ~8x a client's service interval at capacity
  return s;
}

/// The simulated quantities of one run: equal across repetitions of a spec,
/// between traced and untraced runs, and against run_sim_experiment.
struct SimSummary {
  std::uint64_t ops = 0;
  std::uint64_t completed = 0;
  std::uint64_t sim_cycles = 0;
  std::uint64_t attempts = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t instructions = 0;
  std::uint64_t mem_accesses = 0;
  std::uint64_t lat_count = 0;
  std::uint64_t lat_p50 = 0;
  std::uint64_t lat_p999 = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline = 0;
  double mops = 0;
  bool operator==(const SimSummary&) const = default;
};

struct SimOutcome {
  SimSummary sum;
  euno::ctx::SiteStats stats;
  LatencyHistogram lat;       // per-op latency (closed) / sojourn (open), cycles
  std::vector<std::uint64_t> lat_exact;  // the same samples, unbucketed
  LatencyHistogram lateness;  // open loop: issue lag behind schedule, cycles
  euno::store::StoreTotals store;
  std::uint64_t wasted = 0;
  std::uint64_t clock_sum = 0;
  std::uint64_t mem_total = 0;
  std::uint64_t mem_reserved = 0;
  std::uint64_t mem_ccm = 0;
  std::uint64_t live_keys = 0;
  double setup_s = 0;
  double gen_setup_s = 0;
  double run_host_ns = 0;
  std::uint64_t wrong = 0;
  std::vector<std::string> problems;
};

/// One simulated run of `spec`. With `logs` (one per client) every tree and
/// store call is wrapped in a span. The output checks run after the
/// simulation: structural invariants of every tree, and the final key set
/// equal to preload ∪ keys of completed puts (size_slow plus a get of every
/// expected key).
SimOutcome run_sim_once(const ExperimentSpec& spec,
                        std::vector<SpanLog>* logs) {
  SimOutcome o;
  const auto& w = spec.workload;
  const bool store_on = spec.store.enabled();
  const bool open_loop = spec.store.open_loop();
  const auto n = static_cast<std::size_t>(spec.threads);
  if (w.mix.delete_pct != 0 || w.mix.scan_pct != 0) {
    o.problems.push_back("sim workloads check key sets of get/put mixes only");
    return o;
  }

  const auto t_setup = Clock::now();
  euno::sim::Simulation simulation(spec.machine);
  euno::MemStats::instance().reset();
  const euno::trees::TreeEntry& entry =
      euno::trees::tree_registry().expect(spec.tree);
  euno::trees::TreeBuildOptions build;
  build.policy = spec.policy;
  std::vector<AnyTree<SimCtx>*> trees;  // in build order = shard order
  auto make = [&](SimCtx& c) -> std::unique_ptr<AnyTree<SimCtx>> {
    std::unique_ptr<AnyTree<SimCtx>> t = entry.make_sim(c, build);
    if (logs != nullptr) {
      t = std::make_unique<TracedTree<SimCtx>>(std::move(t), logs);
    }
    trees.push_back(t.get());
    return t;
  };
  SimCtx setup(simulation, 0);
  const euno::store::StoreRuntime rt{spec.ghz * 1e9};
  std::unique_ptr<AnyTree<SimCtx>> tree;
  std::optional<euno::store::ShardedStore<SimCtx>> st;
  if (store_on) {
    st.emplace(setup, spec.store, rt, make);
  } else {
    tree = make(setup);
  }

  // Preload exactly as driver::run_sim_experiment does (same rng stream and
  // key order).
  std::vector<std::uint8_t> expected(w.key_range, 0);
  euno::Xoshiro256 rng(w.seed ^ 0x9e3779b97f4a7c15ull);
  for (std::uint64_t i = 0; i < spec.preload; ++i) {
    const std::uint64_t rank = i * spec.preload_stride;
    if (rank >= w.key_range) break;
    const Key k = euno::workload::rank_to_key(rank, w.key_range, w.scramble);
    const Value v = rng.next();
    if (st) {
      st->preload_put(setup, k, v);
    } else {
      tree->put(setup, k, v);
    }
    expected[k] = 1;
  }

  // Generators are built before the clock origin: the Zipfian ζ precompute
  // is set-up, not service.
  const auto t_gen = Clock::now();
  std::vector<euno::workload::OpStream> streams;
  std::vector<euno::workload::ArrivalStream> arrivals;
  euno::workload::OpenLoopSpec ol;
  ol.seed = w.seed ^ 0x0B5E55ull;
  ol.clients = spec.threads;
  ol.think = spec.store.think;
  if (open_loop) {
    ol.mean_gap = rt.clock_hz * static_cast<double>(spec.threads) /
                  (spec.store.offered_load_mops * 1e6);
  }
  for (int t = 0; t < spec.threads; ++t) {
    streams.emplace_back(w, t);
    arrivals.emplace_back(ol, t, 0);
  }
  o.gen_setup_s = seconds_since(t_gen);
  o.setup_s = seconds_since(t_setup);

  std::vector<euno::ctx::SiteStats> stats(n);
  std::vector<LatencyHistogram> lat(n), late(n);
  std::vector<std::vector<std::uint64_t>> lat_exact(n);
  std::vector<std::vector<Key>> puts(n);
  std::vector<std::uint64_t> completed(n, 0), shed(n, 0), deadline(n, 0);
  for (int t = 0; t < spec.threads; ++t) {
    simulation.spawn(t, [&, t](int core) {
      SimCtx c(simulation, core);
      const auto ti = static_cast<std::size_t>(t);
      SpanLog* log = logs != nullptr ? &(*logs)[ti] : nullptr;
      std::vector<KV> scan_buf(w.scan_len);
      std::uint64_t completion = 0;
      for (std::uint64_t i = 0; i < spec.ops_per_thread; ++i) {
        std::uint64_t sched = 0;
        if (open_loop) {
          sched = arrivals[ti].next(completion);
          const std::uint64_t now = simulation.clock_of(core);
          if (sched > now) simulation.charge(sched - now);
          late[ti].record(c.now() - sched);
        }
        const Op op = streams[ti].next();
        const std::uint64_t t0 = c.now();
        if (!open_loop) sched = t0;
        std::uint32_t op_span = kNoSpan;
        if (log != nullptr) {
          log->begin_op((static_cast<std::uint64_t>(t) << 40) | i);
          op_span = log->open(kSpanOp, t0);
        }
        StoreStatus status = StoreStatus::kOk;
        if (st) {
          ScopedSpan<SimCtx> span(log, c, kSpanStoreExecute);
          status = st->execute(c, op, sched, scan_buf.data()).status;
        } else if (op.type == OpType::kGet) {
          Value v;
          (void)tree->get(c, op.key, &v);
        } else {
          tree->put(c, op.key, op.value);
        }
        const std::uint64_t t1 = c.now();
        if (log != nullptr) {
          log->close(op_span, t1);
          log->end_op();
        }
        completion = t1;
        if (status == StoreStatus::kOk || status == StoreStatus::kNotFound) {
          completed[ti]++;
          lat[ti].record(t1 - sched);
          lat_exact[ti].push_back(t1 - sched);
          if (op.type == OpType::kPut) puts[ti].push_back(op.key);
        } else if (status == StoreStatus::kShedded) {
          shed[ti]++;
        } else {
          deadline[ti]++;
        }
      }
      stats[ti] = c.stats();
    });
  }
  const auto t_run = Clock::now();
  simulation.run();
  o.run_host_ns = seconds_since(t_run) * 1e9;

  SimSummary& s = o.sum;
  s.ops = spec.ops_per_thread * n;
  s.sim_cycles = simulation.max_clock();
  for (std::size_t t = 0; t < n; ++t) {
    o.stats += stats[t];
    o.lat.merge(lat[t]);
    o.lat_exact.insert(o.lat_exact.end(), lat_exact[t].begin(),
                       lat_exact[t].end());
    o.lateness.merge(late[t]);
    s.completed += completed[t];
    s.shed += shed[t];
    s.deadline += deadline[t];
    const auto& cc = simulation.counters(static_cast<int>(t));
    s.instructions += cc.instructions;
    s.mem_accesses += cc.mem_accesses;
    o.wasted += cc.cycles_wasted;
    o.clock_sum += simulation.clock_of(static_cast<int>(t));
  }
  // Same arithmetic as run_sim_experiment, so the doubles compare bit for bit.
  const double seconds =
      static_cast<double>(s.sim_cycles) / (spec.ghz * 1e9);
  const double done = static_cast<double>(store_on ? s.completed : s.ops);
  s.mops = seconds > 0 ? done / seconds / 1e6 : 0;
  const euno::htm::TxStats tot = o.stats.total();
  s.attempts = tot.attempts;
  s.commits = tot.commits;
  s.aborts = tot.total_aborts();
  s.fallbacks = tot.fallbacks;
  s.lat_count = o.lat.count();
  s.lat_p50 = o.lat.percentile(0.50);
  s.lat_p999 = o.lat.percentile(0.999);
  if (st) o.store = st->accumulate();
  auto& ms = euno::MemStats::instance();
  o.mem_total = ms.tree_live_bytes();
  o.mem_reserved = ms.snapshot(euno::MemClass::kReservedKeys).live_bytes;
  o.mem_ccm = ms.snapshot(euno::MemClass::kCCM).live_bytes;

  // Output checks, outside the simulation (uninstrumented accesses).
  for (const auto& p : puts) {
    for (const Key k : p) expected[k] = 1;
  }
  std::uint64_t want = 0, size = 0, missing = 0;
  for (AnyTree<SimCtx>* t : trees) {
    t->check_invariants();
    size += t->size_slow();
  }
  for (Key k = 0; k < w.key_range; ++k) {
    if (expected[k] == 0) continue;
    want++;
    AnyTree<SimCtx>* t =
        st ? trees[static_cast<std::size_t>(st->shard_of(k))] : tree.get();
    Value v;
    if (!t->get(setup, k, &v)) missing++;
  }
  o.live_keys = size;
  o.wrong = missing + (size > want ? size - want : want - size);
  if (o.wrong != 0) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "key set: %" PRIu64 " live keys, %" PRIu64
                  " expected, %" PRIu64 " expected keys missing",
                  size, want, missing);
    o.problems.push_back(buf);
  }

  SimCtx teardown(simulation, 0);
  if (st) {
    st->destroy(teardown);
  } else {
    tree->destroy(teardown);
  }
  return o;
}

std::string summary_text(const SimSummary& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "mops=%.17g cycles=%" PRIu64 " aborts=%" PRIu64
                " fallbacks=%" PRIu64 " p50=%" PRIu64 " p999=%" PRIu64
                " completed=%" PRIu64,
                s.mops, s.sim_cycles, s.aborts, s.fallbacks, s.lat_p50,
                s.lat_p999, s.completed);
  return buf;
}

/// The benchmark's loop and driver::run_sim_experiment must measure the same
/// program: identical throughput, aborts and latency percentiles.
void cross_check(const ExperimentSpec& spec, const SimOutcome& mine,
                 const char* label, Report& r) {
  ExperimentSpec s = spec;
  s.obs = euno::obs::ObsOptions{};
  s.obs.latency = true;
  const ExperimentResult d = euno::driver::run_sim_experiment(s);
  const bool ok = d.throughput_mops == mine.sum.mops &&
                  d.aborts_total == mine.sum.aborts &&
                  d.fallbacks == mine.sum.fallbacks &&
                  d.sim_cycles == mine.sum.sim_cycles &&
                  d.lat_p50 == static_cast<double>(mine.sum.lat_p50) &&
                  d.lat_p999 == static_cast<double>(mine.sum.lat_p999);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "cross-check %s vs run_sim_experiment: %s (driver mops=%.17g "
                "aborts=%" PRIu64 " p50=%.0f p999=%.0f)",
                label, ok ? "identical" : "MISMATCH", d.throughput_mops,
                d.aborts_total, d.lat_p50, d.lat_p999);
  r.notes.push_back(buf);
  r.check(ok, buf);
}

/// Results of the timed loop over rounds. A round runs every spec of one
/// sub-seed once (sim-hot: one spec; sim-store-load: the three rates).
struct Rounds {
  // [sub-seed][spec]: the first untraced outcome, which later runs of the
  // spec must match, and whether a traced run of it was taken yet.
  std::vector<std::vector<std::optional<SimOutcome>>> canon;
  std::vector<std::vector<bool>> traced;
  std::vector<double> host_ns_per_op;         // per untraced round
  std::vector<double> host_ns_per_access;     // per untraced round
  std::vector<double> traced_host_ns_per_op;  // per traced round
  std::vector<double> setup_s;                // per run
  double gen_setup_s = 0;                     // first (cold) set-up
  std::uint64_t mismatches = 0;               // traced vs untraced
  SpanStats spans;
};

/// Runs rounds until `opt.seconds` have passed and every sub-seed has run
/// (traced mode: alternating untraced and traced rounds of each sub-seed).
Rounds run_rounds(const Options& opt,
                  const std::vector<std::vector<ExperimentSpec>>& specs,
                  Report& r) {
  const std::size_t k_seeds = specs.size();
  const std::size_t k_specs = specs[0].size();
  Rounds out;
  out.canon.assign(k_seeds, std::vector<std::optional<SimOutcome>>(k_specs));
  out.traced.assign(k_seeds, std::vector<bool>(k_specs, false));
  const std::size_t min_rounds = opt.trace ? 2 * k_seeds : k_seeds;
  bool spans_written = false;
  const auto t0 = Clock::now();
  for (std::size_t q = 0;; ++q) {
    if (q >= min_rounds && seconds_since(t0) >= opt.seconds) break;
    const bool traced = opt.trace && q % 2 == 1;
    const std::size_t j = (opt.trace ? q / 2 : q) % k_seeds;
    double host_ns = 0;
    std::uint64_t ops = 0, accesses = 0;
    for (std::size_t k = 0; k < k_specs; ++k) {
      const ExperimentSpec& spec = specs[j][k];
      std::vector<SpanLog> logs;
      if (traced) {
        logs.assign(static_cast<std::size_t>(spec.threads),
                    SpanLog(4 * spec.ops_per_thread + 16));
      }
      SimOutcome o = run_sim_once(spec, traced ? &logs : nullptr);
      if (q == 0 && k == 0) out.gen_setup_s = o.gen_setup_s;
      out.setup_s.push_back(o.setup_s);
      host_ns += o.run_host_ns;
      ops += o.sum.ops;
      accesses += o.sum.mem_accesses;
      r.attempted += o.sum.ops;
      r.failed += o.wrong;
      for (const auto& p : o.problems) r.check(false, p);

      auto& canon = out.canon[j][k];
      if (traced) {
        if (canon && !(canon->sum == o.sum)) {
          out.mismatches++;
          r.check(false, "traced run changed simulated metrics: " +
                             summary_text(o.sum) + " vs " +
                             summary_text(canon->sum));
        }
        if (!out.traced[j][k]) {
          for (const auto& l : logs) out.spans.add(l.spans());
          if (!spans_written && !opt.spans_path.empty()) {
            r.check(write_spans(opt.spans_path, logs, "cycles"),
                    "writing spans to " + opt.spans_path);
            spans_written = true;
          }
          out.traced[j][k] = true;
        }
      } else if (canon) {
        r.check(canon->sum == o.sum,
                "repeated run changed simulated metrics: " +
                    summary_text(o.sum) + " vs " + summary_text(canon->sum));
      } else {
        canon = std::move(o);
      }
    }
    const double per_op = host_ns / static_cast<double>(ops);
    if (traced) {
      out.traced_host_ns_per_op.push_back(per_op);
    } else {
      out.host_ns_per_op.push_back(per_op);
      out.host_ns_per_access.push_back(host_ns / static_cast<double>(accesses));
    }
  }
  return out;
}

/// Canonical outcomes of spec index `k` over all sub-seeds.
std::vector<const SimOutcome*> column(const Rounds& rs, std::size_t k) {
  std::vector<const SimOutcome*> v;
  for (const auto& row : rs.canon) v.push_back(&*row[k]);
  return v;
}

double cycles_to_ns(double cycles) { return cycles / kGhz; }

/// Per-layer metrics common to both sim workloads: ctx and sync counters
/// from SiteStats, simulator cost counters, MemStats classes, tree spans.
void sim_layers(const Options& opt, const Rounds& rs,
                const std::vector<const SimOutcome*>& outs, Report& r) {
  std::uint64_t ops = 0, wasted = 0, clock_sum = 0, accesses = 0, instr = 0;
  double reserved = 0, ccm = 0;
  euno::ctx::SiteStats st;
  for (const SimOutcome* o : outs) {
    ops += o->sum.ops;
    wasted += o->wasted;
    clock_sum += o->clock_sum;
    accesses += o->sum.mem_accesses;
    instr += o->sum.instructions;
    reserved += static_cast<double>(o->mem_reserved);
    ccm += static_cast<double>(o->mem_ccm);
    st += o->stats;
  }
  const euno::htm::TxStats t = st.total();
  const auto dops = static_cast<double>(ops);
  auto per_op = [&](const char* name, std::uint64_t v) {
    r.add_layer(name, ratio(static_cast<double>(v), dops), ops, "ops");
  };
  const auto conflict = t.aborts[static_cast<int>(AbortReason::kConflict)];
  const auto capacity = t.aborts[static_cast<int>(AbortReason::kCapacity)];
  per_op("ctx.attempts_per_op", t.attempts);
  r.add_layer("ctx.commit_ratio",
              ratio(static_cast<double>(t.commits),
                    static_cast<double>(t.attempts)),
              t.attempts, "attempts");
  per_op("ctx.aborts_conflict_per_op", conflict);
  per_op("ctx.aborts_capacity_per_op", capacity);
  per_op("ctx.aborts_other_per_op", t.total_aborts() - conflict - capacity);
  per_op("ctx.lock_subscription_aborts_per_op",
         t.conflicts[static_cast<int>(ConflictKind::kLockSubscription)]);
  per_op("ctx.fallbacks_per_op", t.fallbacks);
  per_op("ctx.lock_wait_cycles_per_op", t.lock_wait_cycles);
  r.add_layer("ctx.wasted_cycle_frac",
              ratio(static_cast<double>(wasted), static_cast<double>(clock_sum)),
              clock_sum, "core cycles");
  per_op("sync.upper_aborts_per_op",
         st.at(euno::ctx::TxSite::kUpper).total_aborts());
  per_op("sync.lower_aborts_per_op",
         st.at(euno::ctx::TxSite::kLower).total_aborts());
  per_op("sync.false_record_conflicts_per_op",
         t.conflicts[static_cast<int>(ConflictKind::kFalseRecord)]);
  per_op("sync.false_metadata_conflicts_per_op",
         t.conflicts[static_cast<int>(ConflictKind::kFalseMetadata)]);
  per_op("sync.true_conflicts_per_op",
         t.conflicts[static_cast<int>(ConflictKind::kTrueSameRecord)]);
  r.add_layer("sim.host_ns_per_access", median(rs.host_ns_per_access),
              rs.host_ns_per_access.size(), "untraced rounds");
  per_op("sim.accesses_per_op", accesses);
  per_op("sim.instructions_per_op", instr);
  const auto n_outs = static_cast<double>(outs.size());
  r.add_layer("mem.reserved_bytes", reserved / n_outs, outs.size(), "runs");
  r.add_layer("mem.ccm_bytes", ccm / n_outs, outs.size(), "runs");
  r.add_layer("workload.gen_setup_s", rs.gen_setup_s, 1, "cold set-up");
  if (!opt.trace) return;

  auto spans = rs.spans;  // quantile() reorders
  auto& get = spans.dur[kSpanTreeGet];
  auto& put = spans.dur[kSpanTreePut];
  r.add_layer("trees.get_cycles_p50", static_cast<double>(quantile(get, 0.5)),
              get.size(), "get spans");
  r.add_layer("trees.get_cycles_p999",
              static_cast<double>(quantile(get, 0.999)), get.size(),
              "get spans");
  r.add_layer("trees.put_cycles_p50", static_cast<double>(quantile(put, 0.5)),
              put.size(), "put spans");
  r.add_layer("trees.put_cycles_p999",
              static_cast<double>(quantile(put, 0.999)), put.size(),
              "put spans");
  if (!spans.store_self.empty()) {
    r.add_layer("store.self_cycles_p50",
                static_cast<double>(quantile(spans.store_self, 0.5)),
                spans.store_self.size(), "execute spans");
  }
  r.add_layer("trace.ops", static_cast<double>(spans.ops), spans.ops, "ops");
  r.add_layer("trace.spans", static_cast<double>(spans.spans), spans.spans,
              "spans");
  const double untraced = median(rs.host_ns_per_op);
  r.add_layer("trace.host_overhead_frac",
              ratio(median(rs.traced_host_ns_per_op), untraced) - 1,
              rs.traced_host_ns_per_op.size(), "traced rounds");
  r.add_layer("trace.sim_mismatches", static_cast<double>(rs.mismatches),
              rs.traced_host_ns_per_op.size() * rs.canon[0].size(),
              "traced runs");
}

double bytes_per_key(const std::vector<const SimOutcome*>& outs) {
  double s = 0;
  for (const SimOutcome* o : outs) {
    s += ratio(static_cast<double>(o->mem_total),
               static_cast<double>(o->live_keys));
  }
  return s / static_cast<double>(outs.size());
}

/// Pooled throughput: completed ops over summed simulated seconds.
double pooled_mops(const std::vector<const SimOutcome*>& outs, bool goodput,
                   std::uint64_t* ops_out) {
  double secs = 0;
  std::uint64_t ops = 0;
  for (const SimOutcome* o : outs) {
    secs += static_cast<double>(o->sum.sim_cycles) / (kGhz * 1e9);
    ops += goodput ? o->sum.completed : o->sum.ops;
  }
  *ops_out = ops;
  return ratio(static_cast<double>(ops), secs) / 1e6;
}

/// Exact latency samples of several runs, pooled. The histogram's ~3%
/// buckets would make percentiles step between a few values; the metrics
/// use exact nearest-rank percentiles instead.
std::vector<std::uint64_t> pooled_lat(
    const std::vector<const SimOutcome*>& outs) {
  std::vector<std::uint64_t> v;
  for (const SimOutcome* o : outs) {
    v.insert(v.end(), o->lat_exact.begin(), o->lat_exact.end());
  }
  return v;
}

/// End-to-end metrics both sim workloads report the same way. `all` holds
/// every canonical outcome of the run, `mem_outs` those bytes_per_key is
/// taken from.
void common_e2e(const Rounds& rs, const std::vector<const SimOutcome*>& all,
                const std::vector<const SimOutcome*>& mem_outs, Report& r) {
  const double setup = median(rs.setup_s);
  r.add_named("setup_s", setup, "s", rs.setup_s.size(), "set-ups");
  r.add_e2e("setup_s", setup, rs.setup_s.size(), "set-ups");
  const double bpk = bytes_per_key(mem_outs);
  r.add_named("bytes_per_key", bpk, "B/key", mem_outs.size(), "runs");
  r.add_e2e("bytes_per_key", bpk, mem_outs.size(), "runs");
  const double host = median(rs.host_ns_per_op);
  r.add_named("sim_host_ns_per_op", host, "ns", rs.host_ns_per_op.size(),
              "rounds");
  r.add_e2e("host_ns_per_op", host, rs.host_ns_per_op.size(), "rounds");
  // Refused ops (shed, or past their deadline) are the hardened store's
  // intended answer to overload: they count here but are not wrong results.
  std::uint64_t ops = 0, bad = 0;
  for (const SimOutcome* o : all) {
    ops += o->sum.ops;
    bad += o->sum.shed + o->sum.deadline + o->wrong;
  }
  r.add_named("fail_frac",
              ratio(static_cast<double>(bad), static_cast<double>(ops)),
              "ratio", ops, "ops");
}

/// Digest of the first ops of client 0's stream. Taken after the runs, so
/// the generator's ζ precompute still counts in the first set-up.
void add_digest(const ExperimentSpec& spec, Report& r) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "opstream_digest %016" PRIx64,
                opstream_digest(euno::workload::OpStream(spec.workload, 0), 64));
  r.notes.push_back(buf);
}

}  // namespace

void run_sim_hot(const Options& opt, Report& r) {
  const int seeds = opt.quick ? 1 : kSubSeeds;
  std::vector<std::vector<ExperimentSpec>> specs;
  for (int j = 0; j < seeds; ++j) {
    specs.push_back({hot_spec(sub_seed(opt.seed, j), opt.quick)});
  }
  const Rounds rs = run_rounds(opt, specs, r);
  add_digest(specs[0][0], r);
  const auto outs = column(rs, 0);
  if (!opt.trace) cross_check(specs[0][0], *outs[0], "sim-hot", r);

  std::uint64_t ops = 0;
  const double mops = pooled_mops(outs, false, &ops);
  std::vector<std::uint64_t> lat = pooled_lat(outs);
  const auto p50 = static_cast<double>(quantile(lat, 0.5));
  const auto p999 = static_cast<double>(quantile(lat, 0.999));
  r.add_named("sim_mops", mops, "Mops", ops, "simulated ops");
  r.add_named("sim_p50_cycles", p50, "cycles", lat.size(), "op latencies");
  r.add_named("sim_p999_cycles", p999, "cycles", lat.size(), "op latencies");
  r.add_e2e("throughput_mops", mops, ops, "simulated ops");
  r.add_e2e("latency_p50_ns", cycles_to_ns(p50), lat.size(), "op latencies");
  r.add_e2e("latency_p999_ns", cycles_to_ns(p999), lat.size(), "op latencies");
  common_e2e(rs, outs, outs, r);
  sim_layers(opt, rs, outs, r);
}

void run_sim_store_load(const Options& opt, Report& r) {
  const int seeds = opt.quick ? 1 : kSubSeeds;
  const double rates[] = {kRateLo, kRateMid, kRateHi};
  const char* const rate_names[] = {"lo", "mid", "hi"};
  std::vector<std::vector<ExperimentSpec>> specs;
  for (int j = 0; j < seeds; ++j) {
    std::vector<ExperimentSpec> row;
    for (double rate : rates) {
      row.push_back(store_spec(sub_seed(opt.seed, j), rate, opt.quick));
    }
    specs.push_back(row);
  }
  const Rounds rs = run_rounds(opt, specs, r);
  add_digest(specs[0][0], r);
  std::uint64_t shed = 0, deadline = 0, degradations = 0, ops = 0;
  for (const auto& row : rs.canon) {
    for (const auto& o : row) {
      shed += o->sum.shed;
      deadline += o->sum.deadline;
      degradations += o->store.degradations;
      ops += o->sum.ops;
    }
  }
  if (!opt.trace) {
    for (std::size_t k = 0; k < 3; ++k) {
      cross_check(specs[0][k], *rs.canon[0][k],
                  (std::string("sim-store-load.") + rate_names[k]).c_str(), r);
    }
  }

  std::uint64_t good = 0;
  const double goodput_hi = pooled_mops(column(rs, 2), true, &good);
  r.add_named("sim_mops", goodput_hi, "Mops", good, "completed ops at hi");
  r.add_e2e("throughput_mops", goodput_hi, good, "completed ops at hi");
  double p50[3], p999[3];
  std::size_t count[3];
  for (std::size_t k = 0; k < 3; ++k) {
    std::vector<std::uint64_t> soj = pooled_lat(column(rs, k));
    p50[k] = static_cast<double>(quantile(soj, 0.5));
    p999[k] = static_cast<double>(quantile(soj, 0.999));
    count[k] = soj.size();
  }
  const double to_us = 1.0 / (kGhz * 1e3);
  r.add_named("sojourn_p50_us.lo", p50[0] * to_us, "us", count[0],
              "sojourns at lo");
  for (std::size_t k = 0; k < 3; ++k) {
    r.add_named(std::string("sojourn_p999_us.") + rate_names[k],
                p999[k] * to_us, "us", count[k],
                std::string("sojourns at ") + rate_names[k]);
  }
  r.add_e2e("latency_p50_ns", cycles_to_ns(p50[0]), count[0], "sojourns at lo");
  r.add_e2e("latency_p999_ns", cycles_to_ns(p999[1]), count[1],
            "sojourns at mid");

  if (!opt.trace) {
    // Highest grid rate whose p99.9 sojourn meets the limit with at most 1%
    // of ops refused. Deterministic (first sub-seed); reuses the three
    // measured rates.
    double max_rate = 0;
    for (double rate : kRateGrid) {
      std::optional<SimOutcome> fresh;
      const SimOutcome* o = nullptr;
      for (std::size_t k = 0; k < 3; ++k) {
        if (rates[k] == rate) o = &*rs.canon[0][k];
      }
      if (o == nullptr) {
        fresh = run_sim_once(store_spec(sub_seed(opt.seed, 0), rate, opt.quick),
                             nullptr);
        for (const auto& p : fresh->problems) r.check(false, p);
        r.attempted += fresh->sum.ops;
        r.failed += fresh->wrong;
        o = &*fresh;
      }
      std::vector<std::uint64_t> soj = o->lat_exact;
      const double p999_us = static_cast<double>(quantile(soj, 0.999)) * to_us;
      const double fail = ratio(static_cast<double>(o->sum.shed + o->sum.deadline),
                                static_cast<double>(o->sum.ops));
      const bool meets = !soj.empty() && p999_us <= kSojournLimitUs &&
                         fail <= kFailLimit;
      if (meets) max_rate = rate;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "rate %.0f Mops: goodput %.3f Mops, p999 sojourn %.3f us, "
                    "refused %.4f -> %s",
                    rate, o->sum.mops, p999_us, fail, meets ? "meets" : "misses");
      r.notes.push_back(buf);
    }
    r.add_named("max_rate_mops", max_rate, "Mops",
                sizeof(kRateGrid) / sizeof(kRateGrid[0]), "grid rates");
  }
  std::vector<const SimOutcome*> all;
  for (std::size_t k = 0; k < 3; ++k) {
    for (const SimOutcome* o : column(rs, k)) all.push_back(o);
  }
  common_e2e(rs, all, column(rs, 1), r);
  sim_layers(opt, rs, all, r);
  const auto dops = static_cast<double>(ops);
  r.add_layer("store.shed_frac", ratio(static_cast<double>(shed), dops), ops,
              "ops at lo+mid+hi");
  r.add_layer("store.deadline_frac", ratio(static_cast<double>(deadline), dops),
              ops, "ops at lo+mid+hi");
  r.add_layer("store.degradations", static_cast<double>(degradations), ops,
              "ops at lo+mid+hi");
  LatencyHistogram late;
  for (const SimOutcome* o : column(rs, 2)) late.merge(o->lateness);
  r.add_layer("workload.lateness_p999_us",
              static_cast<double>(late.percentile(0.999)) * to_us, late.count(),
              "issues at hi");
}

}  // namespace perfbench
