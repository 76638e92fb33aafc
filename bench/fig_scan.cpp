// Scan-heavy workload over variable-length string keys (DESIGN.md §16).
//
// YCSB workload E (95% short range scans, 5% inserts, Zipfian start keys)
// against every tree registered with bytes-domain support, under both string
// corpora: `url` keys share long prefixes, so in-node prefix search
// degenerates and comparisons resolve through the out-of-line suffix
// tie-break; `uuid` keys have uniformly random leading slices, so the 8-byte
// prefix discriminates nearly every comparison. The spread between the two
// rows is the measured cost of prefix sharing under the prefix-slice node
// format.
//
// `--key-domain=u64` reruns the same trees through their order-preserving
// u64 key codec (the registry's default surface for bytes trees): fixed
// 12-byte keys, same mix — the codec-vs-native-bytes comparison.
//
// Machine-checkable from the exit status: every point must complete its full
// op count, report latency percentiles with p99 >= p50 > 0 (scans dominate,
// so the histogram must be populated), and — bytes domain — hold live
// suffix-box memory at the end of the run (value indirection actually
// exercised).
#include "fig_common.hpp"

using namespace euno;

namespace {

struct Point {
  std::string tree;
  workload::KeyStyle style{};
};

/// Bytes-capable trees, registry-driven (caps.key_domain == kBytes), with
/// the uniform `--tree=` narrowing applied on top.
std::vector<std::string> scan_tree_kinds(const stats::BenchArgs& args) {
  std::vector<std::string> kinds;
  for (const auto& e : trees::tree_registry().entries()) {
    if (e.caps.key_domain == trees::KeyDomain::kBytes) kinds.push_back(e.kind);
  }
  const trees::TreeEntry* sel = bench::selected_tree(args);
  if (sel != nullptr) {
    if (sel->caps.key_domain != trees::KeyDomain::kBytes) {
      std::fprintf(stderr,
                   "--tree=%s has no bytes-domain support; this bench runs "
                   "string-key trees\n",
                   sel->kind.c_str());
      std::exit(2);
    }
    return {sel->kind};
  }
  return kinds;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = stats::BenchArgs::parse(argc, argv);
  const bool bytes = args.key_domain != "u64";

  auto base = bench::figure_spec(args);
  base.workload = workload::WorkloadSpec::ycsb_e();
  base.workload.key_range = args.key_range ? args.key_range : (1u << 16);
  base.workload.seed = args.seed;
  base.workload.scan_len = args.scan_len != 0 ? args.scan_len : 16;
  if (bytes) base.workload.key_domain = workload::KeyDomain::kBytes;
  base.preload = base.workload.key_range / 2;
  base.preload_stride = 2;
  base.ops_per_thread =
      args.ops_per_thread ? args.ops_per_thread : (args.quick ? 400 : 2000);
  base.threads = args.quick ? 8 : 16;

  const std::vector<std::string> kinds = scan_tree_kinds(args);
  const std::vector<workload::KeyStyle> styles =
      bytes ? std::vector<workload::KeyStyle>{workload::KeyStyle::kUrl,
                                              workload::KeyStyle::kUuid}
            : std::vector<workload::KeyStyle>{workload::KeyStyle::kUrl};

  std::vector<Point> points;
  std::vector<driver::ExperimentSpec> specs;
  for (const auto& k : kinds) {
    for (const auto st : styles) {
      driver::ExperimentSpec s = base;
      s.tree = k;
      s.workload.key_style = st;
      points.push_back(Point{k, st});
      specs.push_back(s);
    }
  }

  bench::print_header("Scan-heavy string keys",
                      bytes ? "YCSB-E, bytes domain, url vs uuid corpora"
                            : "YCSB-E, u64 codec surface of the bytes trees",
                      base);
  const auto results = bench::run_figure_sweep(specs, args);
  bench::emit_artifacts(args, "fig_scan", specs, results);

  // Sim latencies are cycles, native ones wall nanoseconds.
  const double to_us = args.native ? 1e-3 : 1.0 / (base.ghz * 1e3);
  stats::Table table({"tree", "corpus", "mops", "aborts/op", "fallbacks",
                      "suffix_kb", "p50us", "p99us", "p999us"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& r = results[i];
    table.add_row(
        {bench::display_name(points[i].tree),
         bytes ? workload::key_style_name(points[i].style) : "u64-codec",
         stats::Table::num(r.throughput_mops), stats::Table::num(r.aborts_per_op),
         stats::Table::num(r.fallbacks), stats::Table::num(r.suffix_bytes / 1024),
         stats::Table::num(r.lat_p50 * to_us), stats::Table::num(r.lat_p99 * to_us),
         stats::Table::num(r.lat_p999 * to_us)});
  }
  table.print(args.csv);

  const std::uint64_t want_ops =
      base.ops_per_thread * static_cast<std::uint64_t>(base.threads);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& r = results[i];
    const std::string label = bench::display_name(points[i].tree);
    if (r.ops != want_ops) {
      std::fprintf(stderr, "fig_scan: %s completed %llu ops, expected %llu\n",
                   label.c_str(), static_cast<unsigned long long>(r.ops),
                   static_cast<unsigned long long>(want_ops));
      return 1;
    }
    if (!(r.lat_p50 > 0) || r.lat_p99 < r.lat_p50) {
      std::fprintf(stderr,
                   "fig_scan: %s latency percentiles degenerate "
                   "(p50=%.0f p99=%.0f)\n",
                   label.c_str(), r.lat_p50, r.lat_p99);
      return 1;
    }
    if (bytes && r.suffix_bytes == 0) {
      std::fprintf(stderr,
                   "fig_scan: %s finished a bytes-domain run with no live "
                   "suffix boxes — value indirection was not exercised\n",
                   label.c_str());
      return 1;
    }
  }
  return 0;
}
