// The benchmark's pinned workloads and the runner for one repetition.
//
// Every workload runs with threads = 1 through public entry points only
// (fabric::Make, core::SlotEngine::Run, topo::Topology::Build,
// topo::NetworkEngine::Run, the traffic:: sources, ckpt::Io), so it
// measures the simulator and not the scheduler.  A rep builds everything
// fresh from its seed; the simulated result is hashed into a digest that
// covers every result field and no timing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "layers.h"
#include "sim/types.h"

namespace perf {

enum class WorkloadKind { kUniform, kCongested, kFaulted, kClos };

// The run length the rep counts are pinned for.
inline constexpr double kPinnedSeconds = 20.0;

struct Workload {
  WorkloadKind kind;
  std::string name;
  // Reps in a run of kPinnedSeconds: one pass over that many inputs, rep r
  // running input r, whose digest for the default seed is committed in
  // expected.json.  The count is pinned, not the wall time, so every build
  // measures the same inputs however fast it is.
  int reps;
  sim::Slot slots;  // arrival slots per rep (a smoke rep runs 1/20)
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(std::string_view name);

// Reps in a run of `seconds`: the pinned count scaled to that length, at
// least `min_reps`.  Rep r runs input r % workload.reps.
int RepsFor(const Workload& workload, double seconds, int min_reps);

// The seed of input `input` under benchmark seed `seed`.
std::uint64_t InputSeed(std::uint64_t seed, int input);

struct RepOptions {
  // Unset: undecorated.  kCalls also times the source, the demultiplexors
  // and the checkpoint Io; kReplicas applies to single-switch workloads.
  std::optional<Decoration> decoration = std::nullopt;
  bool smoke = false;  // 1/20 of the slots
  // Check the rep against a second, independent computation of the same
  // result: a checkpoint resume for faulted-serve, a fresh re-run
  // otherwise.  Runs after the timed section.
  bool verify = false;
};

struct RepOutcome {
  // Building fabric, source, faults and scenario: the fastest of a few
  // back-to-back set-ups, the last of which the rep runs.
  std::int64_t setup_ns = 0;
  std::int64_t run_ns = 0;    // inside SlotEngine::Run / NetworkEngine::Run
  std::uint64_t cells = 0;    // cells offered (edge cells for a network)
  std::uint64_t digest = 0;
  std::vector<std::int64_t> window_marks;  // see kWindowSlots
  LayerCounters counters;                  // decorated reps only
  std::uint64_t dropped = 0;
  std::uint64_t window_rows = 0;
  std::uint64_t ckpt_writes = 0;
  std::uint64_t ckpt_bytes = 0;
  std::uint64_t hop_cells = 0;  // cells forwarded by all nodes (networks)
  std::string error;            // empty when every check passed
};

// Runs one rep.  Never throws: an exception or a failed check lands in
// RepOutcome::error.  `clos_json` is the committed Clos scenario.
RepOutcome RunRep(const Workload& workload, std::uint64_t seed,
                  const RepOptions& options, std::string_view clos_json);

}  // namespace perf
