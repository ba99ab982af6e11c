// Per-layer timing for the repo benchmark, measured from outside the
// engine: each class here decorates one public interface (a traffic
// source, a fabric, a demultiplexor, the checkpoint filesystem seam) and
// adds what crosses it to aggregated counters.  Nothing inside src/ is
// instrumented, so a traced run executes the same engine code as an
// untraced one and must reproduce its results bit for bit.
//
// One traced run makes about 10^7 boundary crossings, so the counters are
// aggregates (calls, ns), not per-call spans.  Every timed interval
// also contains one clock read; Real() subtracts that calibrated cost.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/io.h"
#include "core/harness.h"
#include "core/slot_engine.h"
#include "fabric/fabric.h"
#include "sim/cell.h"
#include "sim/types.h"
#include "switch/demux_iface.h"
#include "switch/output_queued.h"
#include "traffic/source.h"

namespace perf {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// What timing costs on this host, measured once per process: one NowNs()
// call, and a whole empty interval (two calls plus the bookkeeping), which
// is the wall time each timed interval adds to a run.
double ClockReadNs();
double ClockSpanNs();

// Calls into one layer and the wall time they took.
struct Span {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;

  void Add(std::int64_t start_ns) {
    ns += NowNs() - start_ns;
    ++calls;
  }
  // Wall time minus the clock read each interval contains.
  double Real() const {
    return static_cast<double>(ns) - static_cast<double>(calls) * ClockReadNs();
  }
  void Merge(const Span& other) {
    calls += other.calls;
    ns += other.ns;
  }
};

// Everything one traced rep records, per layer.
struct LayerCounters {
  Span source;    // TrafficSource::ArrivalsAt
  Span demux;     // Demultiplexor::Dispatch (nested inside inject)
  Span inject;    // Fabric::Inject, demux included
  Span advance;   // Fabric::Advance
  Span query;     // Fabric::losses
  std::int64_t peak_backlog = 0;  // max Fabric::TotalBacklog seen
  Span shadow;    // replica shadow OQ, one interval per slot stage
  Span ledger;    // replica delay ledger, one interval per slot stage
  Span ckpt_save;  // Fabric::SaveState entry -> Io::WriteFileAtomic entry
  Span ckpt_io;    // Io::WriteFileAtomic
  // Set by TimedFabric::SaveState, consumed by MemIo::WriteFileAtomic.
  std::int64_t save_started_ns = 0;

  void Merge(const LayerCounters& other);
};

// Wall-clock marks every kWindowSlots simulated slots (faulted-serve's
// window), taken where the engine pulls arrivals; consecutive marks give
// the wall time a windowed consumer waits per window.
inline constexpr sim::Slot kWindowSlots = 256;

class TimedSource final : public traffic::TrafficSource {
 public:
  // `counters` is null in untraced runs: only the window marks are taken.
  TimedSource(traffic::TrafficSource& inner,
              std::vector<std::int64_t>& window_marks,
              LayerCounters* counters)
      : inner_(inner), marks_(window_marks), counters_(counters) {}

  std::vector<sim::Arrival> ArrivalsAt(sim::Slot t) override;
  bool Exhausted(sim::Slot t) const override { return inner_.Exhausted(t); }
  bool reseedable() const override { return inner_.reseedable(); }
  void Reseed(std::uint64_t seed) override { inner_.Reseed(seed); }
  bool checkpointable() const override { return inner_.checkpointable(); }
  void SaveState(ckpt::Writer& w) const override { inner_.SaveState(w); }
  void LoadState(ckpt::Reader& r) override { inner_.LoadState(r); }

 private:
  traffic::TrafficSource& inner_;
  // ckpt-skip: wall-clock marks, timing data that never enters results
  std::vector<std::int64_t>& marks_;
  // ckpt-skip: timing counters, never part of the simulated state
  LayerCounters* counters_;
};

class TimedDemux final : public pps::Demultiplexor {
 public:
  TimedDemux(std::unique_ptr<pps::Demultiplexor> inner,
             LayerCounters& counters)
      : inner_(std::move(inner)), counters_(counters) {}

  void Reset(const pps::SwitchConfig& config, sim::PortId input) override {
    inner_->Reset(config, input);
  }
  pps::DispatchDecision Dispatch(const sim::Cell& cell,
                                 const pps::DispatchContext& ctx) override;
  void OnSlotEnd(sim::Slot now) override { inner_->OnSlotEnd(now); }
  pps::InfoModel info_model() const override { return inner_->info_model(); }
  int info_delay() const override { return inner_->info_delay(); }
  bool shard_independent() const override {
    return inner_->shard_independent();
  }
  std::unique_ptr<pps::Demultiplexor> Clone() const override {
    return std::make_unique<TimedDemux>(inner_->Clone(), counters_);
  }
  std::string name() const override { return inner_->name(); }
  void SaveState(ckpt::Writer& w) const override { inner_->SaveState(w); }
  void LoadState(ckpt::Reader& r) override { inner_->LoadState(r); }

 private:
  std::unique_ptr<pps::Demultiplexor> inner_;
  // ckpt-skip: timing counters, never part of the simulated state
  LayerCounters& counters_;
};

// A shadow OQ switch and a RelativeDelayLedger fed, in lockstep, the cell
// stream the engine gives the fabric.  Timing them estimates what the
// engine's own shadow and ledger cost; their finalized count and max RQD
// must equal the engine's, which checks the lockstep feed.
class ReplicaCore {
 public:
  explicit ReplicaCore(sim::PortId num_ports);

  void OnInject(const sim::Cell& cell);
  // The engine reads the loss total right after every Inject; a change
  // there names the cell just injected as an inject drop.
  void OnLossTotal(std::uint64_t total);
  // `lost_after_advance` is the fabric's loss total once Advance returned.
  void OnAdvance(sim::Slot t, const std::vector<sim::Cell>& departed,
                 std::uint64_t lost_after_advance, bool measured_drained,
                 LayerCounters& counters);

  std::uint64_t finalized() const { return result_.relative_delay.count(); }
  sim::Slot max_relative_delay() const { return result_.max_relative_delay; }

 private:
  class NullObserver final : public core::RelativeDelayObserver {
   public:
    void OnRelativeDelay(sim::PortId, sim::PortId, sim::Slot,
                         sim::Slot) override {}
  };

  NullObserver observer_;
  pps::OutputQueuedSwitch shadow_;
  core::RelativeDelayLedger ledger_;
  core::RunResult result_;
  std::vector<sim::Cell> arrivals_;  // this slot's injected cells
  std::vector<bool> inject_dropped_;
  bool drop_check_pending_ = false;
  std::uint64_t known_lost_ = 0;
};

// What a TimedFabric adds to the fabric it wraps.  The two are separate
// passes because each perturbs the other: per-call clock reads slow the
// replicas' stages, and the replicas' extra working set slows every call.
enum class Decoration {
  kCalls,     // time every call into the fabric
  kReplicas,  // drive a ReplicaCore, timed per slot stage
};

// Decorates the fabric the engine runs.  Takes the inner fabric's name so
// checkpoints and results are those of an undecorated run.  The sharded
// entry points keep the base-class defaults, which route through Inject
// and Advance.
class TimedFabric final : public fabric::Fabric {
 public:
  TimedFabric(std::unique_ptr<fabric::Fabric> inner, LayerCounters& counters,
              Decoration decoration);

  void Inject(const sim::Cell& cell, sim::Slot t) override;
  const std::vector<sim::Cell>& Advance(sim::Slot t) override;
  bool Drained() const override { return inner_->Drained(); }
  std::int64_t TotalBacklog() const override;
  sim::PortId num_ports() const override { return inner_->num_ports(); }
  fabric::Capabilities capabilities() const override {
    return inner_->capabilities();
  }
  fault::LossBreakdown losses() const override;
  void FailPlane(sim::PlaneId k, sim::Slot at) override {
    inner_->FailPlane(k, at);
  }
  void RecoverPlane(sim::PlaneId k, sim::Slot at) override {
    inner_->RecoverPlane(k, at);
  }
  fault::LinkFaultInjector* link_faults() override {
    return inner_->link_faults();
  }
  bool flow_order_promised() const override {
    return inner_->flow_order_promised();
  }
  std::uint64_t resequencing_stalls() const override {
    return inner_->resequencing_stalls();
  }
  bool checkpointable() const override { return inner_->checkpointable(); }
  void SaveState(ckpt::Writer& w) const override;
  void LoadState(ckpt::Reader& r) override { inner_->LoadState(r); }

  const ReplicaCore* replica() const { return replica_.get(); }

 private:
  std::unique_ptr<fabric::Fabric> inner_;
  // ckpt-skip: timing counters, never part of the simulated state
  LayerCounters& counters_;
  // ckpt-skip: fixed at construction, selects timing only
  bool time_calls_;
  // ckpt-skip: benchmark-side replica, rebuilt per rep and never resumed
  std::unique_ptr<ReplicaCore> replica_;
};

// An in-memory ckpt::Io, so checkpoint cost is serialization and copying,
// not the host's disk.  With counters it also times the write.
class MemIo final : public ckpt::Io {
 public:
  explicit MemIo(LayerCounters* counters) : counters_(counters) {}

  void WriteFileAtomic(const std::string& path,
                       std::string_view data) override;
  std::string ReadWholeFile(const std::string& path) override;
  bool Exists(const std::string& path) override {
    return files_.count(path) != 0;
  }
  void Remove(const std::string& path) override { files_.erase(path); }
  std::vector<std::string> ListDir(const std::string& dir) override;

  std::uint64_t writes() const { return writes_; }
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  LayerCounters* counters_;
  std::map<std::string, std::string> files_;
  std::uint64_t writes_ = 0;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace perf
