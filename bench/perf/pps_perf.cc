// pps_perf: the repo benchmark's driver, one workload per process.
//
//   pps_perf --workload=NAME [--seed=S] [--seconds=T] [--trace=0|1]
//            [--data-dir=DIR]
//       Runs the workload's pinned reps, scaled from kPinnedSeconds to T
//       (workloads.h), checks every rep, prints each metric by name and
//       unit, and ends with one JSON line:
//         {"correct": ..., "attempted": reps, "failed": reps, "metrics": {..}}
//       --trace=0 reports the end-to-end metrics of undecorated runs.
//       --trace=1 runs a quarter of those inputs undecorated and then in
//       each decorated pass (layers.h), requires identical digests, and
//       reports the per-layer split plus the overhead of timing every call.
//   pps_perf --smoke [--data-dir=DIR]
//       Two short reps of every workload, undecorated and decorated,
//       checked against the committed smoke digests.
//   pps_perf --emit-expected [--data-dir=DIR]
//       Prints expected.json: the digest of every input of the default
//       seed, full length and smoke.
//
// DIR (default bench/perf) holds clos.json and expected.json.  Exit codes:
// 0 correct, 1 a check failed, 2 usage or missing data.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "heap.h"
#include "layers.h"
#include "workloads.h"

namespace {

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kMinReps = 3;
constexpr int kSmokeReps = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  bool emit_expected = false;
  std::string data_dir = "bench/perf";
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "pps_perf: " << why << "\n"
            << "usage: pps_perf --workload=NAME [--seed=S] [--seconds=T] "
               "[--trace=0|1] [--data-dir=DIR]\n"
               "   or: pps_perf --smoke [--data-dir=DIR]\n"
               "   or: pps_perf --emit-expected [--data-dir=DIR]\n";
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string_view flag = arg.substr(0, eq);
    const std::string value(eq == std::string_view::npos ? ""
                                                         : arg.substr(eq + 1));
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--smoke") {
        args.smoke = true;
      } else if (flag == "--emit-expected") {
        args.emit_expected = true;
      } else if (flag == "--data-dir") {
        args.data_dir = value;
      } else {
        Usage("unknown argument " + std::string(arg));
      }
    } catch (const std::logic_error&) {
      Usage("bad value in " + std::string(arg));
    }
  }
  if (!args.smoke && !args.emit_expected) {
    if (perf::FindWorkload(args.workload) == nullptr) {
      Usage("unknown or missing --workload '" + args.workload + "'");
    }
    if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  }
  return args;
}

std::string ReadData(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) Usage("cannot read " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

// The digest list under `key` in expected.json, a flat object of arrays of
// hex strings; nullopt when the key is absent.
std::optional<std::vector<std::uint64_t>> ExpectedDigests(
    const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\"");
  if (at == std::string::npos) return std::nullopt;
  const std::size_t open = json.find('[', at);
  const std::size_t close = json.find(']', open);
  if (open == std::string::npos || close == std::string::npos) {
    return std::nullopt;
  }
  std::vector<std::uint64_t> digests;
  std::size_t pos = open;
  while (true) {
    const std::size_t quote = json.find('"', pos + 1);
    if (quote == std::string::npos || quote > close) break;
    const std::size_t end = json.find('"', quote + 1);
    digests.push_back(std::stoull(json.substr(quote + 1, end - quote - 1),
                                  nullptr, 16));
    pos = end;
  }
  return digests;
}

std::string Hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
  return buf;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Reps attempted and failed, with the first few failure reasons.
class Tally {
 public:
  void Record(const perf::RepOutcome& rep, std::string check_error,
              const std::string& label) {
    ++attempted_;
    const std::string error = rep.error + check_error;
    if (error.empty()) return;
    ++failed_;
    if (errors_.size() < 5) errors_.push_back(label + ": " + error);
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  void Report() const {
    for (const std::string& e : errors_) std::cerr << "FAILED " << e << "\n";
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

std::string CheckDigest(std::uint64_t digest, int input,
                        const std::optional<std::vector<std::uint64_t>>& want) {
  if (!want.has_value()) return "";
  const auto i = static_cast<std::size_t>(input);
  if (i >= want->size()) return "no committed digest for input; ";
  if ((*want)[i] != digest) {
    return "digest " + Hex(digest) + " != committed " + Hex((*want)[i]) +
           "; ";
  }
  return "";
}

std::string SameDigest(const perf::RepOutcome& decorated,
                       const perf::RepOutcome& plain) {
  return decorated.digest == plain.digest
             ? ""
             : "decorated run changed the result digest; ";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  tally.Report();
  for (const Metric& m : metrics) {
    std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              tally.failed() == 0 ? "true" : "false", tally.attempted(),
              tally.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// --- --trace=0: end-to-end metrics ----------------------------------------

// Interference from other tenants only ever slows a rep down, so the fast
// tail of the per-rep rates estimates the simulator's own speed; on a
// shared host it repeats about twice as well across runs as the median.
constexpr double kRatePercentile = 0.90;

int RunEndToEnd(const perf::Workload& w, const Args& args,
                const std::string& clos,
                const std::optional<std::vector<std::uint64_t>>& expected) {
  Tally tally;
  std::vector<double> rates;
  std::vector<double> setups;
  std::vector<double> heaps_mb;
  const int reps = perf::RepsFor(w, args.seconds, kMinReps);
  const std::int64_t start = perf::NowNs();
  for (int r = 0; r < reps; ++r) {
    const int input = r % w.reps;
    perf::ResetHeapPeak();
    const perf::RepOutcome rep = perf::RunRep(
        w, perf::InputSeed(args.seed, input), {.verify = r == 0}, clos);
    const double heap_mb =
        static_cast<double>(perf::HeapPeakGrowthBytes()) / (1 << 20);
    tally.Record(rep, CheckDigest(rep.digest, input, expected),
                 "rep " + std::to_string(r));
    if (!rep.error.empty()) continue;
    setups.push_back(static_cast<double>(rep.setup_ns) * 1e-9);
    rates.push_back(static_cast<double>(rep.cells) /
                    (static_cast<double>(rep.run_ns) * 1e-9));
    heaps_mb.push_back(heap_mb);
  }
  if (rates.empty()) {
    tally.Report();
    std::cerr << "pps_perf: no successful rep to measure\n";
    return 1;
  }
  std::printf("# %s seed=%" PRIu64 " reps=%zu wall_s=%.1f "
              "cells_per_s_median=%.6g peak_heap_mb_max=%.6g\n",
              w.name.c_str(), args.seed, rates.size(),
              static_cast<double>(perf::NowNs() - start) * 1e-9,
              Median(rates), *std::max_element(heaps_mb.begin(),
                                               heaps_mb.end()));
  PrintResult(tally,
              {{"cells_per_s", Percentile(rates, kRatePercentile), "cells/s"},
               {"setup_s", Median(setups), "s"},
               {"peak_heap_mb", Median(heaps_mb), "MB"}});
  return tally.failed() == 0 ? 0 : 1;
}

// --- --trace=1: the per-layer split ----------------------------------------

// A quarter of the untraced run's inputs, each undecorated, then with timed
// calls, then (single-switch workloads) with replicas; both decorated passes
// must reproduce the undecorated digest.
int RunTraced(const perf::Workload& w, const Args& args,
              const std::string& clos,
              const std::optional<std::vector<std::uint64_t>>& expected) {
  const bool network = w.kind == perf::WorkloadKind::kClos;
  Tally tally;
  perf::LayerCounters layers;
  double plain_run_ns = 0.0;
  double timed_run_ns = 0.0;
  double cells = 0.0;
  double reps = 0.0;
  double dropped = 0.0;
  double window_rows = 0.0;
  double ckpt_writes = 0.0;
  double ckpt_bytes = 0.0;
  double hop_cells = 0.0;
  std::vector<double> windows_ms;
  const int traced_reps =
      std::max(kMinReps, (perf::RepsFor(w, args.seconds, kMinReps) + 3) / 4);
  for (int r = 0; r < traced_reps; ++r) {
    const int input = r % w.reps;
    const std::uint64_t seed = perf::InputSeed(args.seed, input);
    const std::string label = "rep " + std::to_string(r);
    const perf::RepOutcome plain = perf::RunRep(w, seed, {}, clos);
    tally.Record(plain, CheckDigest(plain.digest, input, expected), label);
    const perf::RepOutcome timed = perf::RunRep(
        w, seed, {.decoration = perf::Decoration::kCalls}, clos);
    tally.Record(timed, SameDigest(timed, plain), label + " (timed calls)");
    perf::RepOutcome replicas;
    if (!network) {
      replicas = perf::RunRep(
          w, seed, {.decoration = perf::Decoration::kReplicas}, clos);
      tally.Record(replicas, SameDigest(replicas, plain),
                   label + " (replicas)");
    }
    if (!plain.error.empty() || !timed.error.empty() ||
        !replicas.error.empty()) {
      continue;
    }
    // A rep's first window is warm-up (cold caches, growing containers).
    for (std::size_t i = 2; i < plain.window_marks.size(); ++i) {
      windows_ms.push_back(static_cast<double>(plain.window_marks[i] -
                                               plain.window_marks[i - 1]) *
                           1e-6);
    }
    plain_run_ns += static_cast<double>(plain.run_ns);
    timed_run_ns += static_cast<double>(timed.run_ns);
    cells += static_cast<double>(plain.cells);
    reps += 1.0;
    layers.Merge(timed.counters);
    layers.Merge(replicas.counters);
    dropped += static_cast<double>(plain.dropped);
    window_rows += static_cast<double>(plain.window_rows);
    ckpt_writes += static_cast<double>(timed.ckpt_writes);
    ckpt_bytes += static_cast<double>(timed.ckpt_bytes);
    hop_cells += static_cast<double>(plain.hop_cells);
  }
  if (reps == 0.0 || windows_ms.empty()) {
    tally.Report();
    std::cerr << "pps_perf: no successful rep to measure\n";
    return 1;
  }
  const auto per = [](double x, double n) { return n > 0.0 ? x / n : 0.0; };
  const auto calls = [](const perf::Span& s) {
    return static_cast<double>(s.calls);
  };
  const double span_cost = perf::ClockSpanNs();
  const double traffic = layers.source.Real();
  const double demux = layers.demux.Real();
  // A nested demux interval's whole clock cost sits inside an inject.
  const double inject = layers.inject.Real() - span_cost * calls(layers.demux);
  const double advance = layers.advance.Real();
  const double query = layers.query.Real();
  const double save = layers.ckpt_save.Real();
  const double io = layers.ckpt_io.Real();
  const double shadow = layers.shadow.Real();
  const double ledger = layers.ledger.Real();
  // The timed-calls run's own residual: its wall minus the timed layers
  // and the clock cost of every interval is the engine's own time, of
  // which the replicas estimate the shadow and ledger share.
  const double intervals = calls(layers.source) + calls(layers.demux) +
                           calls(layers.inject) + calls(layers.advance) +
                           calls(layers.query) + calls(layers.ckpt_save) +
                           calls(layers.ckpt_io);
  const double engine = timed_run_ns - traffic - inject - advance - query -
                        save - io - span_cost * intervals;
  std::printf("# %s seed=%" PRIu64 " reps=%.0f windows=%zu "
              "clock_read_ns=%.1f clock_span_ns=%.1f\n",
              w.name.c_str(), args.seed, reps, windows_ms.size(),
              perf::ClockReadNs(), span_cost);
  PrintResult(
      tally,
      {{"traffic.ns_per_cell", per(traffic, cells), "ns"},
       {"demux.ns_per_dispatch", per(demux, calls(layers.demux)), "ns"},
       {"demux.dispatches", per(calls(layers.demux), reps), "count"},
       {"switch.inject_ns_per_cell", per(inject - demux, cells), "ns"},
       {"switch.advance_ns_per_cell", per(advance, cells), "ns"},
       {"switch.peak_backlog", static_cast<double>(layers.peak_backlog),
        "cells"},
       {"fabric.query_ns_per_cell", per(query, cells), "ns"},
       {"fabric.query_calls_per_cell", per(calls(layers.query), cells),
        "calls/cell"},
       {"core.shadow_ns_per_cell", per(shadow, cells), "ns"},
       {"core.ledger_ns_per_cell", per(ledger, cells), "ns"},
       {"core.other_ns_per_cell",
        network ? 0.0 : per(engine - shadow - ledger, cells), "ns"},
       {"ckpt.save_ns_per_ckpt", per(save, ckpt_writes), "ns"},
       {"ckpt.io_ns_per_ckpt", per(io, ckpt_writes), "ns"},
       {"ckpt.bytes_per_ckpt", per(ckpt_bytes, ckpt_writes), "B"},
       {"ckpt.count", per(ckpt_writes, reps), "count"},
       {"fault.dropped", per(dropped, reps), "cells"},
       {"window.rows", per(window_rows, reps), "count"},
       {"window.ms_p50", Percentile(windows_ms, 0.50), "ms"},
       {"window.ms_p95", Percentile(windows_ms, 0.95), "ms"},
       {"topo.engine_ns_per_cell", network ? per(engine, cells) : 0.0, "ns"},
       {"topo.hop_cells_per_cell", per(hop_cells, cells), "hops/cell"},
       {"peak_rss_mb", PeakRssMb(), "MB"},
       {"trace.overhead_frac", timed_run_ns / plain_run_ns - 1.0, "ratio"}});
  return tally.failed() == 0 ? 0 : 1;
}

// --- --smoke and --emit-expected -------------------------------------------

int RunSmoke(const std::string& clos, const std::string& expected_json) {
  bool ok = true;
  for (const perf::Workload& w : perf::Workloads()) {
    const auto want = ExpectedDigests(expected_json, w.name + "/smoke");
    Tally tally;
    for (int input = 0; input < kSmokeReps; ++input) {
      const std::uint64_t seed = perf::InputSeed(kDefaultSeed, input);
      const perf::RepOutcome plain = perf::RunRep(
          w, seed, {.smoke = true, .verify = input == 0}, clos);
      const std::string label = w.name + " input " + std::to_string(input);
      tally.Record(plain,
                   want.has_value() ? CheckDigest(plain.digest, input, want)
                                    : "no committed smoke digests; ",
                   label);
      for (const perf::Decoration d :
           {perf::Decoration::kCalls, perf::Decoration::kReplicas}) {
        const perf::RepOutcome decorated =
            perf::RunRep(w, seed, {.decoration = d, .smoke = true}, clos);
        tally.Record(decorated, SameDigest(decorated, plain),
                     label + " (decorated)");
      }
    }
    tally.Report();
    std::printf("smoke %-16s %s\n", w.name.c_str(),
                tally.failed() == 0 ? "ok" : "FAILED");
    ok = ok && tally.failed() == 0;
  }
  return ok ? 0 : 1;
}

int EmitExpected(const std::string& clos) {
  std::printf("{\n");
  bool first = true;
  for (const perf::Workload& w : perf::Workloads()) {
    for (const bool smoke : {false, true}) {
      const int inputs = smoke ? kSmokeReps : w.reps;
      std::printf("%s  \"%s%s\": [", first ? "" : ",\n", w.name.c_str(),
                  smoke ? "/smoke" : "");
      first = false;
      for (int input = 0; input < inputs; ++input) {
        const perf::RepOutcome rep = perf::RunRep(
            w, perf::InputSeed(kDefaultSeed, input), {.smoke = smoke}, clos);
        if (!rep.error.empty()) {
          std::cerr << "pps_perf: " << w.name << " input " << input << ": "
                    << rep.error << "\n";
          return 1;
        }
        std::printf("%s\"%s\"", input == 0 ? "" : ", ",
                    Hex(rep.digest).c_str());
      }
      std::printf("]");
    }
  }
  std::printf("\n}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  const std::string clos = ReadData(args.data_dir + "/clos.json");
  if (args.emit_expected) return EmitExpected(clos);
  const std::string expected_json = ReadData(args.data_dir + "/expected.json");
  if (args.smoke) return RunSmoke(clos, expected_json);

  const perf::Workload& w = *perf::FindWorkload(args.workload);
  std::optional<std::vector<std::uint64_t>> expected;
  if (args.seed == kDefaultSeed) {
    expected = ExpectedDigests(expected_json, w.name);
    if (!expected.has_value()) Usage("expected.json has no " + w.name);
  }
  return args.trace ? RunTraced(w, args, clos, expected)
                    : RunEndToEnd(w, args, clos, expected);
}
