#include "serve/query_queue.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/env.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace qpinn::serve {

void QueryQueueConfig::validate() const {
  if (capacity == 0) {
    throw ConfigError("QueryQueueConfig: capacity must be positive");
  }
  if (flush_us < 0) {
    throw ConfigError("QueryQueueConfig: flush_us must be >= 0");
  }
  if (workers == 0) {
    throw ConfigError("QueryQueueConfig: workers must be >= 1");
  }
}

QueryQueueConfig query_queue_config_from_env() {
  QueryQueueConfig config;
  config.capacity = static_cast<std::size_t>(env_int(
      "QPINN_SERVE_QUEUE_CAP", static_cast<long long>(config.capacity)));
  config.flush_us = env_int("QPINN_SERVE_FLUSH_US", config.flush_us);
  config.workers = static_cast<std::size_t>(env_int(
      "QPINN_SERVE_WORKERS", static_cast<long long>(config.workers)));
  config.validate();
  return config;
}

QueryQueue::QueryQueue(std::shared_ptr<ModelRegistry> registry,
                       QueryQueueConfig config)
    : registry_(std::move(registry)), config_(config) {
  QPINN_CHECK(registry_ != nullptr, "QueryQueue: registry must not be null");
  config_.validate();
  {
    MutexLock lock(mu_);
    ring_.resize(config_.capacity);
  }
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

QueryQueue::~QueryQueue() { shutdown(); }

QueryResult QueryQueue::query(double x, double t) {
  if (registry_->current() == nullptr) {
    throw ValueError("QueryQueue: no model has been published yet");
  }
  QueryResult result;
  bool done = false;
  MutexLock lock(mu_);
  while (count_ == ring_.size() && !stopping_) not_full_.wait(mu_);
  if (stopping_) {
    throw ValueError("QueryQueue: query() after shutdown()");
  }
  ring_[(head_ + count_) % ring_.size()] = Slot{x, t, &result, &done};
  ++count_;
  ++stats_.queries;
  not_empty_.notify_one();
  // The worker writes *out/*done and notifies under mu_, so the caller's
  // stack storage is published safely.
  while (!done) done_cv_.wait(mu_);
  return result;
}

void QueryQueue::worker_loop() {
  // Per-worker scratch: reaches its high-water mark (one model batch) after
  // the first flushes, then never reallocates.
  std::vector<Slot> batch;
  std::vector<double> xy;
  std::vector<double> uv;
  for (;;) {
    std::shared_ptr<const CompiledModel> model;
    std::size_t take = 0;
    {
      MutexLock lock(mu_);
      while (count_ == 0 && !stopping_) not_empty_.wait(mu_);
      if (count_ == 0 && stopping_) return;
      const auto rows =
          static_cast<std::size_t>(registry_->current()->batch_rows());
      if (count_ < rows && config_.flush_us > 0 && !stopping_) {
        // Deadline-based coalescing: keep absorbing arrivals until the
        // batch fills or the window (measured from the first wait) closes.
        Stopwatch window;
        while (count_ < rows && !stopping_) {
          const double waited_us = window.seconds() * 1e6;
          const auto remaining =
              static_cast<double>(config_.flush_us) - waited_us;
          if (remaining <= 0.0) break;
          not_empty_.wait_for(
              mu_, std::chrono::microseconds(
                       static_cast<std::int64_t>(remaining) + 1));
        }
      }
      // One registry snapshot per flush: this batch completes on `model`
      // even if a new checkpoint is published mid-replay; the next flush
      // re-reads the registry and picks the promotion up. It is taken after
      // the coalescing wait, which drops mu_, so snapshots follow dequeue
      // order: a client once answered on a new model never gets the old.
      model = registry_->current();
      take = std::min(count_, static_cast<std::size_t>(model->batch_rows()));
      // The coalescing wait drops the lock, so with several workers another
      // drain can win the race for these queries; go back to sleep.
      if (take == 0) continue;
      batch.clear();
      for (std::size_t s = 0; s < take; ++s) {
        batch.push_back(ring_[(head_ + s) % ring_.size()]);
      }
      head_ = (head_ + take) % ring_.size();
      count_ -= take;
      ++stats_.batches;
      if (take == static_cast<std::size_t>(model->batch_rows())) {
        ++stats_.full_batches;
      } else {
        ++stats_.partial_batches;
      }
      not_full_.notify_all();
    }
    xy.resize(take * 2);
    uv.resize(take * 2);
    for (std::size_t s = 0; s < take; ++s) {
      xy[2 * s] = batch[s].x;
      xy[2 * s + 1] = batch[s].t;
    }
    model->evaluate_into(xy.data(), static_cast<std::int64_t>(take),
                         uv.data());
    {
      MutexLock lock(mu_);
      for (std::size_t s = 0; s < take; ++s) {
        *batch[s].out = QueryResult{uv[2 * s], uv[2 * s + 1]};
        *batch[s].done = true;
      }
      done_cv_.notify_all();
    }
  }
}

void QueryQueue::shutdown() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

QueueStats QueryQueue::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace qpinn::serve
