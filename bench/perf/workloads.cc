#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "ckpt/serializer.h"
#include "core/slot_engine.h"
#include "demux/registry.h"
#include "fabric/adapters.h"
#include "fabric/registry.h"
#include "fault/fault_schedule.h"
#include "sim/error.h"
#include "switch/pps.h"
#include "topo/network_engine.h"
#include "topo/topology.h"
#include "traffic/bursty.h"
#include "traffic/random_sources.h"

namespace perf {

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {WorkloadKind::kUniform, "uniform-steady", 64, 10'000},
      {WorkloadKind::kCongested, "congested-sweep", 80, 8'000},
      {WorkloadKind::kFaulted, "faulted-serve", 80, 10'000},
      {WorkloadKind::kClos, "clos-network", 48, 10'000},
  };
  return kWorkloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

int RepsFor(const Workload& workload, double seconds, int min_reps) {
  const auto scaled = static_cast<int>(
      std::lround(workload.reps * seconds / kPinnedSeconds));
  return std::max(scaled, min_reps);
}

namespace {

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t InputSeed(std::uint64_t seed, int input) {
  return SplitMix64(SplitMix64(seed) ^ static_cast<std::uint64_t>(input));
}

namespace {

constexpr const char* kCheckpointPath = "faulted-serve.ckpt";

// Set-up runs this many times back to back per rep and reports the fastest:
// the warm cost.  One set-up takes tens of microseconds, so interference
// from other tenants hits single samples, and it only ever adds time.
constexpr int kSetupsPerRep = 25;

// --- result digests --------------------------------------------------------
//
// Every simulated field goes through a ckpt::Writer (Welford accumulators
// as their raw IEEE-754 bit patterns via OnlineStats::SaveState) and the
// bytes are hashed with 64-bit FNV-1a.  Timing and checkpoint bytes are
// left out.

std::uint64_t Fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

void PutLosses(ckpt::Writer& w, const fault::LossBreakdown& l) {
  w.U64(l.input_drops);
  w.U64(l.stranded_cells);
  w.U64(l.stale_dispatches);
  w.U64(l.link_drops);
  w.U64(l.late_arrivals);
  w.U64(l.buffer_overflows);
}

void PutResult(ckpt::Writer& w, const core::RunResult& r) {
  w.U64(r.cells);
  w.I64(r.duration);
  w.Bool(r.drained);
  w.Bool(r.interrupted);
  w.U64(r.dropped);
  PutLosses(w, r.losses);
  w.I64(r.max_relative_delay);
  w.I64(r.max_relative_jitter);
  r.relative_delay.SaveState(w);
  r.pps_delay.SaveState(w);
  r.shadow_delay.SaveState(w);
  w.I64(r.traffic_burstiness);
  w.Bool(r.order_preserved);
  w.U64(r.resequencing_stalls);
  w.U64(r.audit_violations);
  w.Size(r.timeline.size());
  for (const core::CellRelative& c : r.timeline) {
    w.I64(c.arrival);
    w.I64(c.relative_delay);
    w.I32(c.input);
    w.I32(c.output);
  }
}

void PutRow(ckpt::Writer& w, const core::WindowRow& row) {
  w.U64(row.index);
  w.I64(row.from);
  w.I64(row.to);
  w.U64(row.offered);
  w.U64(row.finalized);
  w.U64(row.dropped);
  PutLosses(w, row.losses);
  w.I64(row.max_relative_delay);
  row.relative_delay.SaveState(w);
  w.I64(row.max_relative_jitter);
  w.I64(row.backlog);
  w.I64(row.shadow_backlog);
}

std::uint64_t SlotDigest(const core::RunResult& r,
                         const std::vector<core::WindowRow>& rows) {
  ckpt::Writer w;
  PutResult(w, r);
  w.Size(rows.size());
  for (const core::WindowRow& row : rows) PutRow(w, row);
  return Fnv1a(w.bytes());
}

std::uint64_t NetworkDigest(const topo::NetworkRunResult& r) {
  ckpt::Writer w;
  w.U64(r.cells);
  w.I64(r.duration);
  w.Bool(r.drained);
  w.Bool(r.interrupted);
  w.U64(r.delivered);
  w.U64(r.dropped);
  PutLosses(w, r.losses);
  w.I32(r.max_hops);
  w.I64(r.max_relative_delay);
  w.I64(r.max_relative_jitter);
  r.relative_delay.SaveState(w);
  r.net_delay.SaveState(w);
  r.shadow_delay.SaveState(w);
  w.Bool(r.order_preserved);
  w.U64(r.audit_violations);
  w.I64(r.node_backlog);
  w.I64(r.link_cells);
  w.Size(r.node_stats.size());
  for (const topo::NodeStats& s : r.node_stats) {
    w.Str(s.name);
    w.U64(s.forwarded);
    w.I64(s.max_hop_delay);
    s.hop_delay.SaveState(w);
    w.I64(s.backlog);
    PutLosses(w, s.losses);
  }
  return Fnv1a(w.bytes());
}

// --- invariants every rep must satisfy, for any seed ----------------------

std::string CheckSlotRun(const core::RunResult& r,
                         const std::vector<core::WindowRow>& rows,
                         bool must_drain) {
  std::ostringstream err;
  const std::uint64_t finalized = r.relative_delay.count();
  if (r.audit_violations != 0) err << "audit violations; ";
  if (!r.order_preserved) err << "flow order broken; ";
  if (must_drain && !r.drained) err << "did not drain; ";
  if (r.drained && (r.losses.total() != r.dropped ||
                    finalized + r.dropped != r.cells)) {
    err << "cells not conserved (cells " << r.cells << ", finalized "
        << finalized << ", dropped " << r.dropped << ", losses "
        << r.losses.total() << "); ";
  }
  if (finalized + r.dropped > r.cells) err << "more cells out than in; ";
  if (!rows.empty()) {
    std::uint64_t offered = 0;
    std::uint64_t row_finalized = 0;
    std::uint64_t dropped = 0;
    sim::Slot max_rqd = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].index != i || (i > 0 && rows[i].from != rows[i - 1].to)) {
        err << "window rows not contiguous at " << i << "; ";
        break;
      }
      offered += rows[i].offered;
      row_finalized += rows[i].finalized;
      dropped += rows[i].dropped;
      max_rqd = std::max(max_rqd, rows[i].max_relative_delay);
    }
    if (offered != r.cells || row_finalized != finalized ||
        dropped != r.dropped || max_rqd != r.max_relative_delay) {
      err << "window rows do not sum to the run; ";
    }
  }
  return err.str();
}

std::string CheckNetworkRun(const topo::NetworkRunResult& r) {
  std::ostringstream err;
  if (r.audit_violations != 0) err << "audit violations; ";
  if (!r.drained) err << "did not drain; ";
  if (r.delivered + r.dropped != r.cells ||
      r.relative_delay.count() != r.delivered) {
    err << "edge cells not conserved (cells " << r.cells << ", delivered "
        << r.delivered << ", dropped " << r.dropped << "); ";
  }
  if (r.max_hops != 3) err << "a 3-stage Clos path had " << r.max_hops
                           << " hops; ";
  return err.str();
}

// --- single-switch workloads ----------------------------------------------

struct SlotSpec {
  std::string fabric;
  pps::SwitchConfig config;
  std::unique_ptr<traffic::TrafficSource> source;
  core::RunOptions options;
  bool must_drain = true;
};

SlotSpec BuildSlotSpec(WorkloadKind kind, std::uint64_t seed,
                       sim::Slot slots, bool smoke) {
  SlotSpec s;
  s.options.source_cutoff = slots;
  s.options.max_slots = 4 * slots;
  switch (kind) {
    case WorkloadKind::kUniform:
      s.fabric = "pps/rr-per-output";
      s.config = {.num_ports = 64, .num_planes = 4, .rate_ratio = 2};
      s.source = std::make_unique<traffic::BernoulliSource>(
          64, 0.8, traffic::Pattern::kUniform, sim::Rng(seed));
      break;
    case WorkloadKind::kCongested:
      // bench_sim_throughput's congested-1-output point: output 0 gets
      // ~10 cells/slot against a 1 cell/slot line, and the backlog piles
      // up in its output mux for the whole run, which stops undrained.
      s.fabric = "pps/rr-per-output";
      s.config = {.num_ports = 64,
                  .num_planes = 8,
                  .rate_ratio = 1,
                  .snapshot_history = 1};
      s.source = std::make_unique<traffic::BernoulliSource>(
          64, 0.5, traffic::Pattern::kHotspot, sim::Rng(seed),
          /*hotspot_fraction=*/0.3);
      s.options.max_slots = slots;
      s.options.drain_grace = 200;
      s.must_drain = false;
      break;
    case WorkloadKind::kFaulted: {
      // The pps_serve path: a u-RT demux with stale failure knowledge,
      // heavy-tailed bursts, a flap storm that never leaves fewer than
      // r' planes up, one flaky-link window, windowed rows and periodic
      // checkpoints.
      s.fabric = "pps/stale-jsq-u4";
      s.config = {.num_ports = 32,
                  .num_planes = 4,
                  .rate_ratio = 2,
                  .reseq_timeout = 32,
                  .fault_visibility_lag = 4};
      s.source = std::make_unique<traffic::ParetoOnOffSource>(
          32, 0.7, /*alpha=*/1.5, /*min_burst=*/1.0, /*max_burst=*/200,
          sim::Rng(seed));
      const std::uint64_t fault_seed = SplitMix64(seed ^ 0xfa17ull);
      s.options.fault_schedule = fault::FaultSchedule::RandomFlaps(
          4, slots, static_cast<double>(slots) / 12.0,
          static_cast<double>(slots) / 50.0, fault_seed, /*max_down=*/1);
      s.options.fault_schedule.DropLink(sim::kNoPort, 0, 0.02, slots / 2,
                                        slots / 100);
      s.options.window_slots = kWindowSlots;
      s.options.checkpoint_every = smoke ? 512 : 4096;
      s.options.checkpoint_path = kCheckpointPath;
      break;
    }
    case WorkloadKind::kClos:
      SIM_CHECK(false, "clos-network is not a single-switch workload");
  }
  return s;
}

// "pps/<algorithm>" built exactly as fabric::Make builds it, with every
// demultiplexor wrapped in a TimedDemux.
std::unique_ptr<fabric::Fabric> MakeTimedPps(const std::string& name,
                                              const pps::SwitchConfig& base,
                                              LayerCounters& counters) {
  SIM_CHECK(name.rfind("pps/", 0) == 0,
            "decorated runs need a pps/ fabric, got " << name);
  const std::string algorithm = name.substr(4);
  pps::SwitchConfig config = base;
  const demux::AlgorithmNeeds needs = demux::NeedsOf(algorithm);
  if (needs.booked_planes) {
    config.plane_scheduling = pps::PlaneScheduling::kBooked;
  }
  config.snapshot_history =
      std::max(config.snapshot_history, needs.snapshot_history);
  pps::DemuxFactory inner = demux::MakeFactory(algorithm);
  pps::DemuxFactory timed = [inner, &counters](sim::PortId input) {
    return std::make_unique<TimedDemux>(inner(input), counters);
  };
  auto made = std::make_unique<fabric::BufferlessPpsFabric>(
      std::make_unique<pps::BufferlessPps>(config, timed));
  made->set_name(name);
  return made;
}

struct SlotRun {
  core::RunResult result;
  std::vector<core::WindowRow> rows;
  bool must_drain = true;
  std::string replica_error;
};

// One single-switch run; fills the outcome's timing, marks and counters.
// `resume` continues from the checkpoint `io` already holds.
SlotRun RunSlotOnce(WorkloadKind kind, std::uint64_t seed, sim::Slot slots,
                    const RepOptions& opt, MemIo& io, bool resume,
                    RepOutcome& out) {
  const bool time_calls = opt.decoration == Decoration::kCalls;
  SlotRun run;
  SlotSpec spec;
  std::unique_ptr<fabric::Fabric> fab;
  std::vector<std::int64_t> setups;
  for (int i = 0; i < kSetupsPerRep; ++i) {
    fab.reset();
    spec = SlotSpec{};
    const std::int64_t start = NowNs();
    spec = BuildSlotSpec(kind, seed, slots, opt.smoke);
    fab = time_calls ? MakeTimedPps(spec.fabric, spec.config, out.counters)
                     : fabric::Make(spec.fabric, spec.config);
    setups.push_back(NowNs() - start);
  }
  out.setup_ns = *std::min_element(setups.begin(), setups.end());
  const TimedFabric* timed_fabric = nullptr;
  if (opt.decoration.has_value()) {
    auto timed = std::make_unique<TimedFabric>(std::move(fab), out.counters,
                                               *opt.decoration);
    timed_fabric = timed.get();
    fab = std::move(timed);
  }
  TimedSource source(*spec.source, out.window_marks,
                     time_calls ? &out.counters : nullptr);
  if (spec.options.window_slots > 0) {
    spec.options.on_window = [&run](const core::WindowRow& row) {
      run.rows.push_back(row);
    };
  }
  if (spec.options.checkpoint_every > 0) spec.options.checkpoint_io = &io;
  if (resume) spec.options.resume_from = kCheckpointPath;

  const std::int64_t run_start = NowNs();
  run.result = core::SlotEngine{}.Run(*fab, source, spec.options);
  out.run_ns = NowNs() - run_start;

  run.must_drain = spec.must_drain;
  if (timed_fabric != nullptr && timed_fabric->replica() != nullptr) {
    const ReplicaCore& replica = *timed_fabric->replica();
    if (replica.finalized() != run.result.relative_delay.count() ||
        replica.max_relative_delay() != run.result.max_relative_delay) {
      std::ostringstream err;
      err << "replica ledger disagrees (finalized " << replica.finalized()
          << " vs " << run.result.relative_delay.count() << ", max RQD "
          << replica.max_relative_delay() << " vs "
          << run.result.max_relative_delay << "); ";
      run.replica_error = err.str();
    }
  }
  return run;
}

void RunSlotRep(const Workload& w, std::uint64_t seed, sim::Slot slots,
                const RepOptions& opt, RepOutcome& out) {
  MemIo io(opt.decoration == Decoration::kCalls ? &out.counters : nullptr);
  const SlotRun run =
      RunSlotOnce(w.kind, seed, slots, opt, io, /*resume=*/false, out);
  out.cells = run.result.cells;
  out.digest = SlotDigest(run.result, run.rows);
  out.dropped = run.result.dropped;
  out.window_rows = run.rows.size();
  out.ckpt_writes = io.writes();
  out.ckpt_bytes = io.bytes_written();
  out.error = run.replica_error + CheckSlotRun(run.result, run.rows,
                                               run.must_drain);
  if (!opt.verify) return;

  RepOutcome scratch;
  const RepOptions plain{.smoke = opt.smoke};
  if (w.kind == WorkloadKind::kFaulted) {
    // Resume from the last checkpoint the run wrote: the engine promises
    // every result field byte-identical, and exactly the window rows the
    // uninterrupted run emitted after the snapshot.
    SIM_CHECK(io.writes() > 0, "faulted-serve wrote no checkpoint");
    const SlotRun resumed =
        RunSlotOnce(w.kind, seed, slots, plain, io, /*resume=*/true, scratch);
    ckpt::Writer a;
    ckpt::Writer b;
    PutResult(a, run.result);
    PutResult(b, resumed.result);
    const std::size_t tail = std::min(resumed.rows.size(), run.rows.size());
    for (std::size_t i = 0; i < tail; ++i) {
      PutRow(a, run.rows[run.rows.size() - tail + i]);
      PutRow(b, resumed.rows[resumed.rows.size() - tail + i]);
    }
    if (resumed.rows.size() != tail || a.bytes() != b.bytes()) {
      out.error += "checkpoint resume diverged from the uninterrupted run; ";
    }
  } else {
    MemIo unused(nullptr);
    const SlotRun again =
        RunSlotOnce(w.kind, seed, slots, plain, unused, false, scratch);
    if (SlotDigest(again.result, again.rows) != out.digest) {
      out.error += "re-run of the same input gave a different result; ";
    }
  }
}

// --- the network workload ---------------------------------------------------

topo::NetworkRunResult RunNetworkOnce(std::uint64_t seed, sim::Slot slots,
                                      std::string_view clos_json,
                                      LayerCounters* counters,
                                      RepOutcome& out) {
  std::optional<topo::Topology> topology;
  traffic::SourcePtr inner;
  std::vector<std::int64_t> setups;
  for (int i = 0; i < kSetupsPerRep; ++i) {
    topology.reset();
    inner.reset();
    const std::int64_t start = NowNs();
    topo::Scenario scenario = topo::FromJson(clos_json);
    scenario.traffic.seed = seed;
    scenario.traffic.cutoff = slots;
    topology = topo::Topology::Build(std::move(scenario));
    inner = topo::MakeTrafficSource(topology->scenario(),
                                    topology->num_ingress(),
                                    topology->num_egress());
    setups.push_back(NowNs() - start);
  }
  out.setup_ns = *std::min_element(setups.begin(), setups.end());
  TimedSource source(*inner, out.window_marks, counters);
  topo::NetworkRunOptions options;
  options.source_cutoff = slots;
  options.max_slots = 4 * slots;

  const std::int64_t run_start = NowNs();
  topo::NetworkRunResult result =
      topo::NetworkEngine{}.Run(*topology, source, options);
  out.run_ns = NowNs() - run_start;
  return result;
}

void RunNetworkRep(std::uint64_t seed, sim::Slot slots,
                   const RepOptions& opt, std::string_view clos_json,
                   RepOutcome& out) {
  const topo::NetworkRunResult result = RunNetworkOnce(
      seed, slots, clos_json,
      opt.decoration == Decoration::kCalls ? &out.counters : nullptr, out);
  out.cells = result.cells;
  out.digest = NetworkDigest(result);
  out.dropped = result.dropped;
  for (const topo::NodeStats& s : result.node_stats) {
    out.hop_cells += s.forwarded;
  }
  out.error = CheckNetworkRun(result);
  if (!opt.verify) return;
  RepOutcome scratch;
  const topo::NetworkRunResult again =
      RunNetworkOnce(seed, slots, clos_json, nullptr, scratch);
  if (NetworkDigest(again) != out.digest) {
    out.error += "re-run of the same input gave a different result; ";
  }
}

}  // namespace

RepOutcome RunRep(const Workload& workload, std::uint64_t seed,
                  const RepOptions& options, std::string_view clos_json) {
  RepOutcome out;
  const sim::Slot slots = options.smoke ? workload.slots / 20 : workload.slots;
  try {
    if (workload.kind == WorkloadKind::kClos) {
      RunNetworkRep(seed, slots, options, clos_json, out);
    } else {
      RunSlotRep(workload, seed, slots, options, out);
    }
  } catch (const std::exception& e) {
    out.error += std::string("threw: ") + e.what();
  }
  return out;
}

}  // namespace perf
