#include "dist/communicator.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <sstream>
#include <utility>

#include "util/fault.hpp"

namespace qpinn::dist {

namespace {

RankContext parse_resume(const std::string& payload) {
  std::istringstream in(payload);
  RankContext ctx;
  if (!(in >> ctx.rank >> ctx.world) || ctx.rank < 0 || ctx.world < 1 ||
      ctx.rank >= ctx.world) {
    throw TransportError("resume", -1, 1,
                         "malformed kResume payload: " + payload);
  }
  return ctx;
}

std::string format_resume(std::int64_t rank, std::int64_t world) {
  return std::to_string(rank) + " " + std::to_string(world);
}

}  // namespace

std::string pack_doubles(const std::vector<double>& values) {
  std::string payload(values.size() * sizeof(double), '\0');
  if (!values.empty()) {
    std::memcpy(payload.data(), values.data(),
                values.size() * sizeof(double));
  }
  return payload;
}

void unpack_doubles(const std::string& payload, std::vector<double>& values) {
  if (payload.size() != values.size() * sizeof(double)) {
    throw TransportError("unpack", -1, 1,
                         "reduction payload size mismatch: got " +
                             std::to_string(payload.size()) + " bytes for " +
                             std::to_string(values.size()) + " doubles");
  }
  if (!values.empty()) {
    std::memcpy(values.data(), payload.data(), payload.size());
  }
}

void maybe_fault_kill(std::int64_t rank, std::int64_t epoch) {
  auto& injector = FaultInjector::instance();
  if (injector.kill_rank() == rank &&
      injector.should_fire_at(kFaultDistKill, epoch)) {
    // Die the way a real crash would: no stack unwinding, no flushing,
    // the peer sees a bare EOF.
    ::_exit(137);
  }
}

std::shared_ptr<Communicator> Communicator::create(const DistConfig& config) {
  if (config.rank < 0 || config.world < 1 || config.rank >= config.world) {
    throw ConfigError("dist rank " + std::to_string(config.rank) +
                      " outside world " + std::to_string(config.world));
  }
  if (config.endpoint.empty()) {
    throw ConfigError("dist endpoint path must be non-empty");
  }
  // Private ctor keeps construction behind the factories (make_shared
  // cannot reach it).
  std::shared_ptr<Communicator> comm(
      new Communicator());  // lint-allow: naked-new
  comm->rank_ = config.rank;
  comm->world_ = config.world;
  comm->options_ = config.transport;
  comm->policy_ = config.policy;
  comm->restart_rank_ = config.restart_rank;

  if (comm->is_root()) {
    comm->listener_ = std::make_unique<Listener>(config.endpoint);
    const std::int64_t deadline =
        steady_now_ms() + comm->options_.rejoin_timeout_ms;
    while (static_cast<std::int64_t>(comm->peers_.size()) <
           config.world - 1) {
      const std::int64_t budget = deadline - steady_now_ms();
      if (budget <= 0) {
        throw TransportError(
            "hello", 0,
            static_cast<std::int64_t>(comm->peers_.size()) + 1,
            "timed out waiting for " +
                std::to_string(config.world - 1 -
                               static_cast<std::int64_t>(
                                   comm->peers_.size())) +
                " worker(s) to join");
      }
      auto peer = comm->listener_->accept_peer(budget);
      if (!peer) continue;
      auto hello =
          recv_frame(*peer, comm->options_.message_timeout_ms, -1);
      if (!hello || hello->type != MsgType::kHello) continue;
      const std::int64_t peer_rank = hello->rank;
      if (peer_rank <= 0 || peer_rank >= config.world ||
          comm->peers_.count(peer_rank) != 0) {
        continue;  // junk or duplicate: drop the stream
      }
      Frame ack{MsgType::kHelloAck, 0, 0, ""};
      send_frame(*peer, ack, 0);
      comm->peers_.emplace(peer_rank, std::move(*peer));
    }
  } else {
    comm->root_socket_ =
        connect_peer(config.endpoint, comm->options_, config.rank);
    Frame hello{MsgType::kHello, 0, config.rank,
                config.rejoin ? "rejoin" : ""};
    send_frame(comm->root_socket_, hello, config.rank);
    const std::int64_t deadline =
        steady_now_ms() + comm->options_.rejoin_timeout_ms;
    bool acked = false;
    bool synced = !config.rejoin;
    bool resumed = !config.rejoin;
    while (!acked || !synced || !resumed) {
      const std::int64_t budget = deadline - steady_now_ms();
      if (budget <= 0) {
        throw TransportError("hello", config.rank, 1,
                             "timed out waiting for root handshake");
      }
      auto frame = recv_frame(
          comm->root_socket_,
          std::min(budget, comm->options_.message_timeout_ms), 0);
      if (!frame) continue;
      if (frame->type == MsgType::kHelloAck) {
        acked = true;
      } else if (frame->type == MsgType::kSync) {
        comm->sync_payload_ = std::move(frame->payload);
        comm->rejoined_ = true;
        synced = true;
      } else if (frame->type == MsgType::kResume) {
        const RankContext ctx = parse_resume(frame->payload);
        comm->rank_ = ctx.rank;
        comm->world_ = ctx.world;
        resumed = true;
      }
    }
  }
  return comm;
}

std::vector<std::shared_ptr<Communicator>> Communicator::loopback(
    std::int64_t world, const TransportOptions& options) {
  if (world < 1) throw ConfigError("loopback world must be >= 1");
  std::vector<std::shared_ptr<Communicator>> comms;
  comms.reserve(static_cast<std::size_t>(world));
  for (std::int64_t r = 0; r < world; ++r) {
    std::shared_ptr<Communicator> comm(
        new Communicator());  // lint-allow: naked-new (private ctor)
    comm->rank_ = r;
    comm->world_ = world;
    comm->options_ = options;
    comm->policy_ = FailurePolicy::kDegrade;
    comms.push_back(std::move(comm));
  }
  for (std::int64_t r = 1; r < world; ++r) {
    Socket root_end;
    Socket worker_end;
    Socket::make_pair(root_end, worker_end);
    comms[0]->peers_.emplace(r, std::move(root_end));
    comms[static_cast<std::size_t>(r)]->root_socket_ =
        std::move(worker_end);
  }
  return comms;
}

void Communicator::allreduce(std::vector<double>& buffer,
                             std::int64_t epoch) {
  if (world_ == 1) {
    ++stats_.allreduces;
    return;
  }
  if (is_root()) {
    root_allreduce(buffer, epoch);
  } else {
    worker_allreduce(buffer, epoch);
  }
}

void Communicator::root_allreduce(std::vector<double>& buffer,
                                  std::int64_t epoch) {
  std::map<std::int64_t, std::string> contribs;
  const std::int64_t deadline =
      steady_now_ms() + options_.heartbeat_timeout_ms;
  while (static_cast<std::int64_t>(contribs.size()) < world_ - 1) {
    const std::int64_t budget = deadline - steady_now_ms();
    if (budget <= 0) {
      // Heartbeat deadline: every silent rank is lost.
      for (const auto& [peer_rank, socket] : peers_) {
        (void)socket;
        if (contribs.count(peer_rank) == 0) {
          lost_ranks_.push_back(peer_rank);
        }
      }
      root_abort_epoch(epoch);
      throw PeerLostError(lost_ranks_.front(),
                          "no contribution before heartbeat deadline");
    }
    std::vector<const Socket*> sockets;
    std::vector<std::int64_t> socket_ranks;
    sockets.reserve(peers_.size());
    for (const auto& [peer_rank, socket] : peers_) {
      sockets.push_back(&socket);
      socket_ranks.push_back(peer_rank);
    }
    const auto ready =
        wait_any_readable(sockets, std::min<std::int64_t>(budget, 100));
    for (const std::size_t idx : ready) {
      const std::int64_t peer_rank = socket_ranks[idx];
      try {
        auto frame = recv_frame(peers_.at(peer_rank),
                                options_.message_timeout_ms, peer_rank);
        if (!frame || frame->type != MsgType::kGradContrib) continue;
        if (frame->epoch == epoch) {
          if (contribs.count(peer_rank) != 0) ++stats_.retransmits;
          contribs[peer_rank] = std::move(frame->payload);
        } else if (frame->epoch == epoch - 1 &&
                   cached_sum_.epoch == frame->epoch) {
          // The rank never saw last epoch's sum; replay it from cache.
          ++stats_.retransmits;
          send_frame(peers_.at(peer_rank), cached_sum_, 0);
        }
      } catch (const PeerLostError&) {
        lost_ranks_.push_back(peer_rank);
      }
    }
    if (!lost_ranks_.empty()) {
      root_abort_epoch(epoch);
      throw PeerLostError(lost_ranks_.front(),
                          "stream closed during epoch gather");
    }
  }

  // Rank-ordered elementwise sum: the reduction order is a pure function
  // of rank, so the result is bit-identical to the single-process
  // shard-ordered reduction for the same partition.
  std::vector<double> contribution(buffer.size());
  for (std::int64_t r = 1; r < world_; ++r) {
    unpack_doubles(contribs.at(r), contribution);
    for (std::size_t i = 0; i < buffer.size(); ++i) {
      buffer[i] += contribution[i];
    }
  }

  cached_sum_ = Frame{MsgType::kGradSum, epoch, 0, pack_doubles(buffer)};
  for (auto& [peer_rank, socket] : peers_) {
    try {
      send_frame(socket, cached_sum_, 0);
    } catch (const PeerLostError&) {
      lost_ranks_.push_back(peer_rank);
    }
  }
  if (!lost_ranks_.empty()) {
    root_abort_epoch(epoch);
    throw PeerLostError(lost_ranks_.front(),
                        "stream closed during sum broadcast");
  }
  last_epoch_ = epoch;
  ++stats_.allreduces;
}

void Communicator::worker_allreduce(std::vector<double>& buffer,
                                    std::int64_t epoch) {
  const Frame contrib{MsgType::kGradContrib, epoch, rank_,
                      pack_doubles(buffer)};
  send_frame(root_socket_, contrib, rank_);
  std::int64_t attempts = 1;
  while (true) {
    auto frame = recv_frame(root_socket_, options_.message_timeout_ms, 0);
    if (!frame) {
      if (attempts > options_.max_retries) {
        throw TransportError("allreduce", rank_, attempts,
                             "no reduction sum from root within the retry "
                             "budget");
      }
      ++attempts;
      ++stats_.retransmits;
      send_frame(root_socket_, contrib, rank_);
      continue;
    }
    if (frame->type == MsgType::kGradSum) {
      if (frame->epoch != epoch) continue;  // stale replay: ignore
      unpack_doubles(frame->payload, buffer);
      ++stats_.allreduces;
      return;
    }
    if (frame->type == MsgType::kEpochAbort) {
      std::int64_t lost = -1;
      std::istringstream(frame->payload) >> lost;
      throw PeerLostError(lost, "epoch " + std::to_string(frame->epoch) +
                                    " aborted by root");
    }
    // Any other type here is a protocol stray; keep waiting.
  }
}

void Communicator::root_abort_epoch(std::int64_t epoch) {
  ++stats_.aborts;
  std::sort(lost_ranks_.begin(), lost_ranks_.end());
  lost_ranks_.erase(std::unique(lost_ranks_.begin(), lost_ranks_.end()),
                    lost_ranks_.end());
  const std::string lost_payload = std::to_string(lost_ranks_.front());
  for (auto& [peer_rank, socket] : peers_) {
    if (std::binary_search(lost_ranks_.begin(), lost_ranks_.end(),
                           peer_rank)) {
      continue;
    }
    try {
      Frame abort{MsgType::kEpochAbort, epoch, 0, lost_payload};
      send_frame(socket, abort, 0);
    } catch (const PeerLostError&) {
      lost_ranks_.push_back(peer_rank);
      std::sort(lost_ranks_.begin(), lost_ranks_.end());
    }
  }
  for (const std::int64_t lost : lost_ranks_) {
    peers_.erase(lost);
  }
}

RankContext Communicator::recover(const std::string& sync_payload) {
  ++stats_.recoveries;
  return is_root() ? root_recover(sync_payload) : worker_recover();
}

// A worker sends its contribution before it can read the abort, so a
// survivor whose contribution the aborted gather did not consume still has
// it queued, and the retried epoch (same epoch number) would sum that stale
// buffer, computed on the old sharding. Each worker echoes the abort when it
// enters recovery; the stream keeps order, so everything ahead of the echo
// belongs to the aborted epoch and is discarded here.
void Communicator::drain_aborted_epoch() {
  const std::int64_t deadline = steady_now_ms() + options_.rejoin_timeout_ms;
  for (auto& [peer_rank, socket] : peers_) {
    while (true) {
      const std::int64_t budget = deadline - steady_now_ms();
      if (budget <= 0) {
        throw TransportError("recover", peer_rank, 1,
                             "no abort echo from a surviving rank within "
                             "the rejoin timeout");
      }
      auto frame = recv_frame(
          socket, std::min(budget, options_.message_timeout_ms), peer_rank);
      if (frame && frame->type == MsgType::kEpochAbort) break;
    }
  }
}

RankContext Communicator::root_recover(const std::string& sync_payload) {
  drain_aborted_epoch();
  if (policy_ == FailurePolicy::kRejoin) {
    if (!listener_) {
      throw ConfigError(
          "rejoin recovery requires the multi-process listener (loopback "
          "communicators support only kDegrade)");
    }
    for (const std::int64_t lost : lost_ranks_) {
      if (restart_rank_) restart_rank_(lost);
    }
    std::set<std::int64_t> remaining(lost_ranks_.begin(),
                                     lost_ranks_.end());
    const std::int64_t deadline =
        steady_now_ms() + options_.rejoin_timeout_ms;
    while (!remaining.empty()) {
      const std::int64_t budget = deadline - steady_now_ms();
      if (budget <= 0) {
        throw TransportError(
            "rejoin", 0, 1,
            "timed out waiting for " + std::to_string(remaining.size()) +
                " replacement rank(s)");
      }
      auto peer = listener_->accept_peer(budget);
      if (!peer) continue;
      auto hello = recv_frame(*peer, options_.message_timeout_ms, -1);
      if (!hello || hello->type != MsgType::kHello) continue;
      const std::int64_t peer_rank = hello->rank;
      if (remaining.count(peer_rank) == 0) continue;
      Frame ack{MsgType::kHelloAck, 0, 0, ""};
      send_frame(*peer, ack, 0);
      Frame sync{MsgType::kSync, last_epoch_, 0, sync_payload};
      send_frame(*peer, sync, 0);
      peers_.emplace(peer_rank, std::move(*peer));
      remaining.erase(peer_rank);
    }
    lost_ranks_.clear();
    for (auto& [peer_rank, socket] : peers_) {
      Frame resume{MsgType::kResume, last_epoch_, 0,
                   format_resume(peer_rank, world_)};
      send_frame(socket, resume, 0);
    }
    return RankContext{0, world_};
  }

  // Degrade: compact the surviving ranks into a dense [0, world) range,
  // preserving relative order (root stays 0), and broadcast the new
  // coordinates.
  std::map<std::int64_t, Socket> compacted;
  std::int64_t next_rank = 1;
  for (auto& [peer_rank, socket] : peers_) {
    (void)peer_rank;
    compacted.emplace(next_rank++, std::move(socket));
  }
  peers_ = std::move(compacted);
  world_ = next_rank;
  lost_ranks_.clear();
  for (auto& [peer_rank, socket] : peers_) {
    Frame resume{MsgType::kResume, last_epoch_, 0,
                 format_resume(peer_rank, world_)};
    send_frame(socket, resume, 0);
  }
  return RankContext{0, world_};
}

RankContext Communicator::worker_recover() {
  // Marks the end of what this rank sent for the aborted epoch (see
  // drain_aborted_epoch).
  send_frame(root_socket_, Frame{MsgType::kEpochAbort, 0, rank_, ""}, rank_);
  const std::int64_t deadline =
      steady_now_ms() + options_.rejoin_timeout_ms;
  while (true) {
    const std::int64_t budget = deadline - steady_now_ms();
    if (budget <= 0) {
      throw TransportError("recover", rank_, 1,
                           "no kResume from root within the rejoin "
                           "timeout");
    }
    auto frame = recv_frame(
        root_socket_, std::min(budget, options_.message_timeout_ms), 0);
    if (!frame) continue;
    if (frame->type == MsgType::kResume) {
      const RankContext ctx = parse_resume(frame->payload);
      rank_ = ctx.rank;
      world_ = ctx.world;
      return ctx;
    }
    // Duplicate aborts or stale sums may still be in flight: ignore.
  }
}

void Communicator::shutdown() {
  if (!is_root()) return;
  for (auto& [peer_rank, socket] : peers_) {
    try {
      Frame bye{MsgType::kShutdown, last_epoch_, 0, ""};
      send_frame(socket, bye, 0);
    } catch (const Error&) {
      // Shutdown is best-effort; a dead peer at teardown is not an error.
    }
  }
}

}  // namespace qpinn::dist
