#include "layers.h"

#include <algorithm>

#include "sim/error.h"

namespace perf {

namespace {

// Per-iteration wall time of `body`, the cheapest of a few trials:
// interference only ever adds time.
template <typename Body>
double CheapestNs(Body body) {
  constexpr int kIterations = 20'000;
  double best = 1e9;
  for (int trial = 0; trial < 5; ++trial) {
    const std::int64_t start = NowNs();
    for (int i = 0; i < kIterations; ++i) body();
    best = std::min(best,
                    static_cast<double>(NowNs() - start) / kIterations);
  }
  return best;
}

}  // namespace

double ClockReadNs() {
  static const double cost = CheapestNs([] { NowNs(); });
  return cost;
}

double ClockSpanNs() {
  static const double cost = [] {
    Span span;
    return CheapestNs([&span] { span.Add(NowNs()); });
  }();
  return cost;
}

void LayerCounters::Merge(const LayerCounters& other) {
  source.Merge(other.source);
  demux.Merge(other.demux);
  inject.Merge(other.inject);
  advance.Merge(other.advance);
  query.Merge(other.query);
  peak_backlog = std::max(peak_backlog, other.peak_backlog);
  shadow.Merge(other.shadow);
  ledger.Merge(other.ledger);
  ckpt_save.Merge(other.ckpt_save);
  ckpt_io.Merge(other.ckpt_io);
}

// ---------------------------------------------------------------------------
// TimedSource

std::vector<sim::Arrival> TimedSource::ArrivalsAt(sim::Slot t) {
  if (t % kWindowSlots == 0) marks_.push_back(NowNs());
  if (counters_ == nullptr) return inner_.ArrivalsAt(t);
  const std::int64_t start = NowNs();
  std::vector<sim::Arrival> arrivals = inner_.ArrivalsAt(t);
  counters_->source.Add(start);
  return arrivals;
}

// ---------------------------------------------------------------------------
// TimedDemux

pps::DispatchDecision TimedDemux::Dispatch(const sim::Cell& cell,
                                           const pps::DispatchContext& ctx) {
  const std::int64_t start = NowNs();
  const pps::DispatchDecision decision = inner_->Dispatch(cell, ctx);
  counters_.demux.Add(start);
  return decision;
}

// ---------------------------------------------------------------------------
// ReplicaCore

ReplicaCore::ReplicaCore(sim::PortId num_ports)
    : shadow_(num_ports),
      ledger_(num_ports, /*keep_timeline=*/false, observer_) {}

void ReplicaCore::OnInject(const sim::Cell& cell) {
  arrivals_.push_back(cell);
  inject_dropped_.push_back(false);
  drop_check_pending_ = true;
}

void ReplicaCore::OnLossTotal(std::uint64_t total) {
  if (drop_check_pending_ && total != known_lost_) {
    inject_dropped_.back() = true;
  }
  drop_check_pending_ = false;
  known_lost_ = total;
}

// Replays the engine's per-slot ledger sequence: track (and mark inject
// drops) in input order, then the measured departures, then the shadow's,
// then the loss total read after Advance and the periodic loss sweep the
// engine runs on the same cadence.
void ReplicaCore::OnAdvance(sim::Slot t,
                            const std::vector<sim::Cell>& departed,
                            std::uint64_t lost_after_advance,
                            bool measured_drained, LayerCounters& counters) {
  std::int64_t start = NowNs();
  for (std::size_t i = 0; i < arrivals_.size(); ++i) {
    ledger_.Track(arrivals_[i]);
    if (inject_dropped_[i]) ledger_.MarkInjectDropped(arrivals_[i].id, result_);
  }
  counters.ledger.Add(start);

  start = NowNs();
  for (const sim::Cell& cell : arrivals_) shadow_.Inject(cell, t);
  counters.shadow.Add(start);
  arrivals_.clear();
  inject_dropped_.clear();

  start = NowNs();
  for (const sim::Cell& cell : departed) {
    ledger_.OnMeasuredDepart(cell, result_);
  }
  counters.ledger.Add(start);

  start = NowNs();
  const std::vector<sim::Cell>& shadow_departed = shadow_.Advance(t);
  counters.shadow.Add(start);

  start = NowNs();
  for (const sim::Cell& cell : shadow_departed) {
    ledger_.OnShadowDepart(cell, result_);
  }
  // Losses Advance recorded count before the sweep decision, as in the
  // engine, which re-reads losses() between Advance and the sweep.
  known_lost_ = lost_after_advance;
  constexpr sim::Slot kReconcilePeriod = 1024;
  if (known_lost_ > 0 && sim::SlotPlus(t, 1) % kReconcilePeriod == 0 &&
      measured_drained) {
    ledger_.SweepLossLeaks(result_);
  }
  counters.ledger.Add(start);
}

// ---------------------------------------------------------------------------
// TimedFabric

TimedFabric::TimedFabric(std::unique_ptr<fabric::Fabric> inner,
                         LayerCounters& counters, Decoration decoration)
    : fabric::Fabric(inner->name()),
      inner_(std::move(inner)),
      counters_(counters),
      time_calls_(decoration == Decoration::kCalls) {
  if (decoration == Decoration::kReplicas) {
    replica_ = std::make_unique<ReplicaCore>(num_ports());
  }
}

void TimedFabric::Inject(const sim::Cell& cell, sim::Slot t) {
  if (replica_) replica_->OnInject(cell);
  if (!time_calls_) return inner_->Inject(cell, t);
  const std::int64_t start = NowNs();
  inner_->Inject(cell, t);
  counters_.inject.Add(start);
}

const std::vector<sim::Cell>& TimedFabric::Advance(sim::Slot t) {
  if (!time_calls_) {
    const std::vector<sim::Cell>& departed = inner_->Advance(t);
    replica_->OnAdvance(t, departed, inner_->losses().total(),
                        inner_->Drained(), counters_);
    return departed;
  }
  const std::int64_t start = NowNs();
  const std::vector<sim::Cell>& departed = inner_->Advance(t);
  counters_.advance.Add(start);
  return departed;
}

std::int64_t TimedFabric::TotalBacklog() const {
  const std::int64_t backlog = inner_->TotalBacklog();
  counters_.peak_backlog = std::max(counters_.peak_backlog, backlog);
  return backlog;
}

fault::LossBreakdown TimedFabric::losses() const {
  if (!time_calls_) {
    const fault::LossBreakdown losses = inner_->losses();
    replica_->OnLossTotal(losses.total());
    return losses;
  }
  const std::int64_t start = NowNs();
  const fault::LossBreakdown losses = inner_->losses();
  counters_.query.Add(start);
  return losses;
}

void TimedFabric::SaveState(ckpt::Writer& w) const {
  counters_.save_started_ns = NowNs();
  inner_->SaveState(w);
}

// ---------------------------------------------------------------------------
// MemIo

void MemIo::WriteFileAtomic(const std::string& path, std::string_view data) {
  const std::int64_t start = counters_ != nullptr ? NowNs() : 0;
  if (counters_ != nullptr && counters_->save_started_ns != 0) {
    counters_->ckpt_save.ns += start - counters_->save_started_ns;
    ++counters_->ckpt_save.calls;
    counters_->save_started_ns = 0;
  }
  files_[path].assign(data);
  ++writes_;
  bytes_written_ += data.size();
  if (counters_ != nullptr) counters_->ckpt_io.Add(start);
}

std::string MemIo::ReadWholeFile(const std::string& path) {
  const auto it = files_.find(path);
  if (it == files_.end()) throw ckpt::IoError("no in-memory file " + path);
  return it->second;
}

std::vector<std::string> MemIo::ListDir(const std::string& dir) {
  const std::string prefix = dir + "/";
  std::vector<std::string> names;
  for (const auto& [path, bytes] : files_) {
    if (path.rfind(prefix, 0) == 0 &&
        path.find('/', prefix.size()) == std::string::npos) {
      names.push_back(path.substr(prefix.size()));
    }
  }
  return names;
}

}  // namespace perf
