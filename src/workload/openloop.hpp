// Open-loop traffic generation (DESIGN.md §15).
//
// Closed-loop benches (each thread issues its next op as soon as the
// previous one returns) self-throttle under overload: the offered rate
// collapses to the service rate and queueing never shows up in the latency
// histograms. The latency-under-load figure needs the opposite: a fixed
// *arrival schedule* that keeps charging regardless of how the store is
// doing, so backlog manifests as growing sojourn time (completion minus
// scheduled arrival) — the open-loop property.
//
// Two deterministic generators live here:
//   - ArrivalStream: one per client; seeded Poisson (exponential
//     inter-arrival) schedule in engine clock units, with an optional
//     think-time floor that makes the loop "partly open" (the schedule
//     itself never shifts — lateness is backlog, not rescheduling).
//   - DriftingOpStream: an OpStream whose skew parameter drifts from the
//     spec value toward `drift_to` over the run (hot-set churn). With drift
//     off it is bit-identical to workload::OpStream on the same seed.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "util/rng.hpp"
#include "workload/ycsb.hpp"

namespace euno::workload {

/// Parameters of one open-loop run, shared by all clients. The clock unit is
/// whatever the execution context's now() counts (simulated cycles on SimCtx,
/// wall-clock ns on NativeCtx); the driver converts offered load into
/// `mean_gap` once, in that unit.
struct OpenLoopSpec {
  std::uint64_t seed = 42;      // arrival-schedule seed (independent of the
                                // key-choice seed in WorkloadSpec)
  int clients = 16;             // number of independent arrival streams
  double mean_gap = 1000;       // mean inter-arrival per client, clock units
  std::uint64_t think = 0;      // per-client think-time floor, clock units

  /// One-line repro string; parse_repro() round-trips it exactly (doubles
  /// are printed with %.17g, which is lossless for IEEE binary64).
  std::string repro() const;
  static bool parse_repro(const std::string& line, OpenLoopSpec* out);
};

/// Deterministic per-client Poisson arrival schedule. The k-th scheduled
/// arrival is origin + sum of k exponential gaps drawn from this client's
/// private rng — a pure function of (spec.seed, client_id), never of how the
/// store responds. The think floor only delays an *issue* past its schedule;
/// it does not move the schedule itself.
class ArrivalStream {
 public:
  ArrivalStream(const OpenLoopSpec& spec, int client_id,
                std::uint64_t origin = 0)
      : rng_(SplitMix64(spec.seed + 0xA7B0ull * (static_cast<std::uint64_t>(
                                                     client_id) +
                                                 1))
                 .next()),
        mean_gap_(spec.mean_gap),
        think_(spec.think),
        base_(origin) {}

  /// Move the schedule's start to `origin` (before the first next()): lets
  /// a caller build the stream before it reads its clock origin.
  void start_at(std::uint64_t origin) { base_ = origin; }

  /// Scheduled arrival of the next op, given the previous op's completion
  /// time (pass 0 for the first call). Advances the stream. The think floor
  /// models a pause after a completion, so a client with none yet
  /// (completion == 0) issues on schedule.
  std::uint64_t next(std::uint64_t completion) {
    base_ += gap();
    std::uint64_t s = base_;
    if (think_ != 0 && completion != 0 && completion + think_ > s) {
      s = completion + think_;
    }
    return s;
  }

 private:
  /// Exponential gap with mean mean_gap_, floored at one clock unit.
  std::uint64_t gap() {
    const double u = rng_.next_double();  // [0, 1)
    const double g = -std::log1p(-u) * mean_gap_;
    const double c = std::ceil(g);
    return c < 1.0 ? 1 : static_cast<std::uint64_t>(c);
  }

  Xoshiro256 rng_;
  double mean_gap_;
  std::uint64_t think_;
  std::uint64_t base_;  // schedule position: origin + sum of gaps so far
};

/// OpStream with skew drift: the distribution parameter moves from
/// spec.dist_param to `drift_to` over `total_ops` calls, by sampling the end
/// distribution with probability issued/total (probabilistic interpolation —
/// cheap, monotone, and deterministic). drift_to < 0 disables drift, in
/// which case the rng consumption pattern matches OpStream exactly and the
/// two produce bit-identical streams from the same spec/thread.
class DriftingOpStream {
 public:
  DriftingOpStream(const WorkloadSpec& spec, int thread_id, double drift_to,
                   std::uint64_t total_ops)
      : spec_(spec),
        rng_(SplitMix64(spec.seed +
                        0x1000ull * static_cast<std::uint64_t>(thread_id))
                 .next()),
        start_(make_distribution(spec.dist, spec.key_range, spec.dist_param)),
        total_(total_ops == 0 ? 1 : total_ops) {
    spec_.mix.validate();
    if (drift_to >= 0 && drift_to != spec.dist_param) {
      end_ = make_distribution(spec.dist, spec.key_range, drift_to);
    }
  }

  Op next() {
    Op op{};
    const auto roll = static_cast<int>(rng_.next_bounded(100));
    if (roll < spec_.mix.get_pct) {
      op.type = OpType::kGet;
    } else if (roll < spec_.mix.get_pct + spec_.mix.put_pct) {
      op.type = OpType::kPut;
    } else if (roll <
               spec_.mix.get_pct + spec_.mix.put_pct + spec_.mix.scan_pct) {
      op.type = OpType::kScan;
      op.scan_len = spec_.scan_len;
    } else {
      op.type = OpType::kDelete;
    }
    RankDistribution* d = start_.get();
    if (end_ != nullptr && rng_.next_bounded(total_) < issued_) d = end_.get();
    if (issued_ < total_) issued_++;
    const std::uint64_t rank = d->sample(rng_);
    op.key = rank_to_key(rank, spec_.key_range, spec_.scramble);
    op.value = rng_.next();
    return op;
  }

 private:
  WorkloadSpec spec_;
  Xoshiro256 rng_;
  std::unique_ptr<RankDistribution> start_;
  std::unique_ptr<RankDistribution> end_;
  std::uint64_t total_;
  std::uint64_t issued_ = 0;
};

}  // namespace euno::workload
