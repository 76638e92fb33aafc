// End-to-end native observability: a run_native_experiment with the trace,
// metrics-interval and perf channels on must come back with per-thread event
// rings, a merged windowed time-series whose op counts reconcile with the
// run, and per-phase perf samples — and with every channel off it must
// collect nothing (the obs-off hot path stays un-instrumented).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "driver/experiment.hpp"
#include "obs/event.hpp"
#include "obs/manifest.hpp"

namespace euno::driver {
namespace {

ExperimentSpec native_spec(int threads) {
  ExperimentSpec spec;
  spec.tree = "euno";
  spec.threads = threads;
  spec.workload.key_range = 1 << 14;
  spec.workload.dist = workload::DistKind::kZipfian;
  spec.workload.dist_param = 0.5;
  spec.workload.scramble = false;
  spec.preload = spec.workload.key_range / 2;
  spec.preload_stride = 2;
  spec.ops_per_thread = 2000;
  spec.machine.arena_bytes = 256ull << 20;
  return spec;
}

TEST(NativeObs, TraceRingsCarryPerThreadEvents) {
  ExperimentSpec spec = native_spec(2);
  spec.obs.trace = true;
  const auto r = run_native_experiment(spec);
  EXPECT_EQ(r.ops, 4000u);
  ASSERT_FALSE(r.trace.empty());
  const auto events = r.trace.merged();
  ASSERT_FALSE(events.empty());
  // Ring index = thread id: both workers must have recorded, clocks must be
  // merged in nondecreasing order, and the op-begin count must match the
  // ops actually run.
  bool saw_core[2] = {false, false};
  std::uint64_t op_begins = 0;
  std::uint64_t prev_clock = 0;
  for (const auto& ev : events) {
    ASSERT_GE(ev.core, 0);
    ASSERT_LT(ev.core, 2);
    saw_core[ev.core] = true;
    EXPECT_GE(ev.clock, prev_clock);
    prev_clock = ev.clock;
    if (static_cast<obs::EventCode>(ev.code) == obs::EventCode::kOpBegin) {
      op_begins++;
    }
  }
  EXPECT_TRUE(saw_core[0]);
  EXPECT_TRUE(saw_core[1]);
  EXPECT_EQ(op_begins, r.ops);
}

TEST(NativeObs, TimeseriesWindowsReconcileWithRun) {
  ExperimentSpec spec = native_spec(2);
  spec.obs.metrics_interval = 200000;  // 200 µs windows (wall ns natively)
  const auto r = run_native_experiment(spec);
  ASSERT_TRUE(r.timeseries.enabled());
  EXPECT_EQ(r.timeseries.interval, 200000u);
  EXPECT_EQ(r.timeseries.unit, "ns");
  ASSERT_FALSE(r.timeseries.windows.empty());
  std::uint64_t ops = 0;
  for (std::size_t i = 0; i < r.timeseries.windows.size(); ++i) {
    const auto& w = r.timeseries.windows[i];
    EXPECT_EQ(w.index, i) << "merged windows must be contiguous from 0";
    ops += w.ops;
    if (w.ops != 0) {
      EXPECT_LE(w.lat_p50, w.lat_p99);
      EXPECT_LE(w.lat_p99, w.lat_max);
    }
  }
  EXPECT_EQ(ops, r.ops)
      << "every completed op must land in exactly one window";
}

TEST(NativeObs, PerfChannelSamplesBothPhases) {
  ExperimentSpec spec = native_spec(2);
  spec.obs.perf = true;
  const auto r = run_native_experiment(spec);
  ASSERT_TRUE(r.perf.attempted);
  ASSERT_EQ(r.perf.phases.size(), 2u);
  EXPECT_EQ(r.perf.phases[0].phase, "preload");
  EXPECT_EQ(r.perf.phases[1].phase, "measure");
  for (const auto& phase : r.perf.phases) {
    EXPECT_EQ(phase.counters.size(), 5u);
    for (const auto& c : phase.counters) {
      if (!c.available) {
        EXPECT_FALSE(c.error.empty())
            << c.name << ": unavailable counters must say why";
      }
    }
  }
}

TEST(NativeObs, ObsOffCollectsNothing) {
  const auto r = run_native_experiment(native_spec(2));
  EXPECT_EQ(r.ops, 4000u);
  EXPECT_TRUE(r.trace.empty());
  EXPECT_FALSE(r.timeseries.enabled());
  EXPECT_FALSE(r.perf.attempted);
  EXPECT_EQ(r.op_latency.count(), 0u);
}

TEST(NativeObs, ManifestCarriesTimeseriesAndPerfSections) {
  ExperimentSpec spec = native_spec(2);
  spec.obs.latency = true;
  spec.obs.metrics_interval = 200000;
  spec.obs.perf = true;
  const auto r = run_native_experiment(spec);
  const std::string path = "native_obs_manifest_test.json";
  ASSERT_TRUE(obs::write_manifest(path, "native_obs_test", &spec, &r, 1));
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string doc = ss.str();
  EXPECT_NE(doc.find("\"timeseries\":"), std::string::npos);
  EXPECT_NE(doc.find("\"unit\":\"ns\""), std::string::npos);
  EXPECT_NE(doc.find("\"perf\":"), std::string::npos);
  EXPECT_NE(doc.find("\"phase\":\"preload\""), std::string::npos);
  EXPECT_NE(doc.find("\"metrics_interval\":200000"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace euno::driver
