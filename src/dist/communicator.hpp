// Rank abstraction and deterministic all-reduce for data-parallel training.
//
// Topology is a star: rank 0 (the root) owns the listening endpoint and
// coordinates; ranks 1..world-1 hold one stream to the root. An
// all-reduce is gather -> rank-ordered elementwise sum -> broadcast, so
// the reduction order is a function of rank alone and the result is
// bit-identical run-to-run — the same discipline the SIMD and plan layers
// follow. Workers' contributions double as heartbeats: the root's gather
// carries a deadline (TransportOptions::heartbeat_timeout_ms) and a rank
// whose contribution never arrives — EOF or silence — is declared lost, no
// watchdog threads required.
//
// Failure state machine (driven by Trainer::fit):
//   gather deadline / EOF on root  ->  root sends kEpochAbort to the
//   survivors and every rank throws PeerLostError  ->  the trainer rolls
//   the epoch back and checkpoints  ->  all survivors call recover():
//     kRejoin:  the root restarts the lost rank (restart_rank callback),
//               accepts its Hello, replies kSync with the trainer's
//               authoritative state, then broadcasts kResume; the
//               replacement loads last.qckpt and applies the sync payload.
//     kDegrade: the root compacts surviving ranks into a smaller world and
//               broadcasts kResume with each rank's new coordinates.
//   ->  the aborted epoch is retried.
//
// A root death is fatal to the job (single point of coordination); see
// DESIGN.md for the limitation and the planned failover follow-up.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dist/transport.hpp"

namespace qpinn::dist {

/// This process's coordinates in the job.
struct RankContext {
  std::int64_t rank = 0;
  std::int64_t world = 1;
};

/// What the survivors do about a lost rank.
enum class FailurePolicy {
  kDegrade,  // reshard onto the smaller surviving world
  kRejoin,   // restart the rank and block until it re-syncs
};

/// Configuration for Communicator::create.
struct DistConfig {
  std::int64_t rank = 0;
  std::int64_t world = 1;
  /// AF_UNIX socket path owned by rank 0 (keep it short: sun_path caps
  /// out near 108 bytes).
  std::string endpoint;
  TransportOptions transport;
  FailurePolicy policy = FailurePolicy::kRejoin;
  /// True when this process is a restarted rank re-entering a running
  /// job: Hello carries the rejoin marker and create() blocks for the
  /// root's kSync + kResume.
  bool rejoin = false;
  /// Root-side hook invoked during kRejoin recovery to restart a dead
  /// rank (the launcher forks a replacement). Unset: recovery just waits
  /// for a replacement to dial in.
  std::function<void(std::int64_t lost_rank)> restart_rank;
};

/// Counters for tests and bench reporting.
struct CommStats {
  std::int64_t allreduces = 0;
  std::int64_t retransmits = 0;
  std::int64_t aborts = 0;
  std::int64_t recoveries = 0;
};

class Communicator {
 public:
  /// Multi-process communicator: rank 0 listens on config.endpoint and
  /// accepts world-1 Hellos; other ranks dial in with bounded retry.
  static std::shared_ptr<Communicator> create(const DistConfig& config);

  /// In-process communicators joined by socketpairs, one per rank — the
  /// same code paths as create() minus the listener, so unit tests, TSan
  /// and the bench harness can exercise the protocol without forking.
  /// Rejoin recovery needs the listener and is unsupported here.
  static std::vector<std::shared_ptr<Communicator>> loopback(
      std::int64_t world, const TransportOptions& options = {});

  std::int64_t rank() const { return rank_; }
  std::int64_t world() const { return world_; }
  bool is_root() const { return rank_ == 0; }
  FailurePolicy policy() const { return policy_; }

  /// Trainer sync state received via kSync when this process rejoined
  /// (empty otherwise).
  const std::string& sync_payload() const { return sync_payload_; }
  bool rejoined() const { return rejoined_; }

  /// In-place sum of `buffer` across all ranks, reduced in rank order so
  /// the result is bit-identical for a given world size. Every rank must
  /// call with the same buffer length and epoch. Throws PeerLostError
  /// when a rank is lost mid-epoch (after the root aborts the epoch) and
  /// TransportError when this rank's own retry budget is exhausted.
  void allreduce(std::vector<double>& buffer, std::int64_t epoch);

  /// Runs the recovery half of the state machine after PeerLostError.
  /// `sync_payload` is the trainer state the root forwards to rejoining
  /// ranks (ignored on non-root ranks). Returns the possibly-changed
  /// coordinates (degrade shrinks the world).
  RankContext recover(const std::string& sync_payload);

  /// Root broadcasts kShutdown; workers close their stream.
  void shutdown();

  /// Ranks the root declared lost in the most recent aborted epoch.
  const std::vector<std::int64_t>& lost_ranks() const { return lost_ranks_; }

  const CommStats& stats() const { return stats_; }

 private:
  Communicator() = default;

  void root_allreduce(std::vector<double>& buffer, std::int64_t epoch);
  void worker_allreduce(std::vector<double>& buffer, std::int64_t epoch);
  void root_abort_epoch(std::int64_t epoch);
  void drain_aborted_epoch();
  RankContext root_recover(const std::string& sync_payload);
  RankContext worker_recover();

  std::int64_t rank_ = 0;
  std::int64_t world_ = 1;
  TransportOptions options_;
  FailurePolicy policy_ = FailurePolicy::kRejoin;
  std::function<void(std::int64_t)> restart_rank_;

  std::unique_ptr<Listener> listener_;      // root, multi-process only
  std::map<std::int64_t, Socket> peers_;    // root: rank -> stream
  Socket root_socket_;                      // workers: stream to root

  std::vector<std::int64_t> lost_ranks_;
  Frame cached_sum_;          // root: last completed epoch's kGradSum
  std::int64_t last_epoch_ = -1;
  std::string sync_payload_;
  bool rejoined_ = false;
  CommStats stats_;
};

/// Deterministic rank-kill fault: when QPINN_FAULT_KILL_RANK targets
/// `rank` and the "dist.kill" window covers `epoch` (QPINN_FAULT_AT /
/// QPINN_FAULT_COUNT), the process exits immediately — no cleanup, as a
/// real crash would. Trainer calls this at the top of every epoch.
void maybe_fault_kill(std::int64_t rank, std::int64_t epoch);

/// Packs doubles into an opaque frame payload and back.
std::string pack_doubles(const std::vector<double>& values);
void unpack_doubles(const std::string& payload, std::vector<double>& values);

}  // namespace qpinn::dist
