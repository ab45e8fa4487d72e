// Distributed runtime tests: transport framing, deterministic all-reduce,
// fault injection (drop / delay / kill), and the recovery state machine
// (elastic rejoin and graceful degrade).
//
// This binary provides its own main(): when re-exec'd by dist::Launcher
// with --qpinn-dist-worker it becomes a worker rank running the same tiny
// training job as the parent test, so the multi-process cases exercise the
// real fork+exec+rejoin path end to end.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "autodiff/precision.hpp"
#include "core/benchmarks.hpp"
#include "core/trainer.hpp"
#include "dist/communicator.hpp"
#include "dist/launcher.hpp"
#include "dist/transport.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/kernels.hpp"
#include "tensor/storage_pool.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace qpinn {
namespace {

// Environment keys carrying the shared job description to worker ranks.
constexpr char kEnvCkptDir[] = "QPINN_DIST_TEST_CKPT";
constexpr char kEnvEpochs[] = "QPINN_DIST_TEST_EPOCHS";
constexpr char kEnvResample[] = "QPINN_DIST_TEST_RESAMPLE";

/// Tiny job used by every dist test. The interior is 8x8 = 64 rows so all
/// kernel working sets stay below the split floors (tensor/executors.hpp)
/// — with one pool thread per process every kernel runs inline, which is
/// what makes the N-rank / threads=N bit-identity claim exact rather than
/// approximate.
core::TrainConfig dist_tiny_config(std::int64_t epochs,
                                   std::int64_t resample_every) {
  core::TrainConfig config = core::default_train_config(epochs, /*seed=*/7);
  config.sampling.n_interior_x = 8;
  config.sampling.n_interior_t = 8;
  config.sampling.n_initial = 16;
  config.sampling.n_boundary = 8;
  config.metric_nx = 16;
  config.metric_nt = 8;
  config.resample_every = resample_every;
  return config;
}

std::shared_ptr<core::FieldModel> dist_tiny_model(
    const core::SchrodingerProblem& problem) {
  core::FieldModelConfig config =
      core::default_model_config(problem, /*seed=*/11);
  config.hidden = {10, 10};
  config.fourier = nn::FourierConfig{4, 1.0};
  config.hard_ic =
      core::HardIc{problem.config().initial, problem.domain().t_lo};
  return core::make_field_model(config);
}

std::vector<Tensor> snapshot_params(const core::FieldModel& model) {
  std::vector<Tensor> out;
  for (const auto& p : model.parameters()) out.push_back(p.value().clone());
  return out;
}

void expect_bit_identical(const std::vector<Tensor>& a,
                          const std::vector<Tensor>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].numel(), b[i].numel()) << what << " param " << i;
    const double* pa = a[i].data();
    const double* pb = b[i].data();
    for (std::int64_t j = 0; j < a[i].numel(); ++j) {
      ASSERT_EQ(pa[j], pb[j])
          << what << " param " << i << " element " << j << " differs";
    }
  }
}

/// Clears the fault injector on entry and exit so armed windows never
/// leak across tests.
struct FaultGuard {
  FaultGuard() { FaultInjector::instance().clear(); }
  ~FaultGuard() { FaultInjector::instance().clear(); }
};

/// Sets an environment variable for the scope, so workers launched inside
/// it inherit the value, and restores the previous value on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

/// Pins fp64 in this process and in the workers it launches, for tests
/// that compare a graph-on run with its QPINN_GRAPH=off twin: eager steps
/// always run fp64, so that comparison is the fp64 replay == eager
/// contract, which mixed precision trades away by design.
class Fp64Pin {
 public:
  Fp64Pin() { autodiff::set_precision_mode(autodiff::Precision::kFp64); }
  ~Fp64Pin() { autodiff::set_precision_mode(saved_); }

 private:
  // Read before env_ changes QPINN_PRECISION: precision_mode() parses the
  // variable once per process.
  autodiff::Precision saved_ = autodiff::precision_mode();
  ScopedEnv env_{"QPINN_PRECISION", "fp64"};
};

/// Reference run: single process, `threads` interior shards, pool size 1.
std::vector<Tensor> run_single_process(std::size_t threads,
                                       std::int64_t epochs,
                                       std::int64_t resample_every) {
  set_global_threads(1);
  auto problem = core::make_free_packet_problem();
  auto model = dist_tiny_model(*problem);
  core::TrainConfig config = dist_tiny_config(epochs, resample_every);
  config.threads = threads;
  core::Trainer trainer(problem, model, config);
  trainer.fit();
  return snapshot_params(*model);
}

// ---- multi-process harness ------------------------------------------------

struct DistRunSpec {
  std::int64_t world = 2;
  std::int64_t epochs = 8;
  std::int64_t resample_every = 2;
  std::string tag;
  /// >= 0: arm QPINN_FAULT_KILL_RANK in the workers' environment so the
  /// targeted rank calls _exit at `kill_epoch`.
  std::int64_t kill_rank = -1;
  std::int64_t kill_epoch = -1;
  /// kRejoin restarts a lost rank through the launcher; kDegrade compacts
  /// the survivors into a smaller world.
  dist::FailurePolicy policy = dist::FailurePolicy::kRejoin;
  /// Every rank's graph mode: kEnv follows QPINN_GRAPH, kOn/kOff pin it
  /// (the workers get QPINN_GRAPH=on/off).
  core::GraphMode graph = core::GraphMode::kEnv;
};

struct DistRunResult {
  core::TrainResult result;
  std::vector<Tensor> params;
  std::int64_t failed_children = 0;
};

/// A launched `spec.world`-rank job: the other ranks are forked via
/// dist::Launcher (they re-exec this test binary in worker mode and train
/// to completion), and `trainer` is rank 0 in this process, not yet run.
struct DistJob {
  std::unique_ptr<dist::Launcher> launcher;
  std::shared_ptr<core::FieldModel> model;
  std::unique_ptr<core::Trainer> trainer;
};

DistJob start_dist_job(const DistRunSpec& spec) {
  set_global_threads(1);
  const std::string endpoint = "/tmp/qpinn_dt_" + spec.tag + "_" +
                               std::to_string(::getpid()) + ".sock";
  const std::string ckpt_dir = ::testing::TempDir() + "qpinn_dist_" + spec.tag;

  dist::LaunchConfig lc;
  lc.world = spec.world;
  lc.endpoint = endpoint;
  lc.extra_env = {
      "QPINN_THREADS=1",
      std::string(kEnvCkptDir) + "=" + ckpt_dir,
      std::string(kEnvEpochs) + "=" + std::to_string(spec.epochs),
      std::string(kEnvResample) + "=" + std::to_string(spec.resample_every),
  };
  if (spec.kill_rank >= 0) {
    lc.extra_env.push_back("QPINN_FAULT_KILL_RANK=" +
                           std::to_string(spec.kill_rank));
    lc.extra_env.push_back("QPINN_FAULT_AT=" +
                           std::to_string(spec.kill_epoch));
  }
  if (spec.graph != core::GraphMode::kEnv) {
    lc.extra_env.push_back(spec.graph == core::GraphMode::kOn
                               ? "QPINN_GRAPH=on"
                               : "QPINN_GRAPH=off");
  }
  DistJob job;
  job.launcher = std::make_unique<dist::Launcher>(lc);
  job.launcher->launch_all();

  // Stand the listener up first: the workers' connect retry budget starts
  // ticking as soon as they exec.
  dist::DistConfig dc;
  dc.rank = 0;
  dc.world = spec.world;
  dc.endpoint = endpoint;
  dc.policy = spec.policy;
  dist::Launcher* launcher = job.launcher.get();
  dc.restart_rank = [launcher](std::int64_t lost) {
    launcher->restart(lost, /*rejoin=*/true);
  };
  auto comm = dist::Communicator::create(dc);

  auto problem = core::make_free_packet_problem();
  job.model = dist_tiny_model(*problem);
  core::TrainConfig config = dist_tiny_config(spec.epochs, spec.resample_every);
  core::CheckpointConfig ck;
  ck.dir = ckpt_dir;
  config.checkpoint = ck;
  config.graph = spec.graph;
  config.dist = std::move(comm);
  job.trainer = std::make_unique<core::Trainer>(problem, job.model, config);
  return job;
}

/// Runs rank 0 of a `spec.world`-rank job to completion in this process.
/// Returns rank 0's training result and final parameters.
DistRunResult run_dist_training(const DistRunSpec& spec) {
  DistJob job = start_dist_job(spec);
  DistRunResult out;
  out.result = job.trainer->fit();
  out.params = snapshot_params(*job.model);
  out.failed_children = job.launcher->wait_all(/*timeout_ms=*/20000);
  return out;
}

// ---- transport ------------------------------------------------------------

TEST(DistTransport, PackUnpackRoundTripsExactBits) {
  const std::vector<double> values = {0.0, -0.0, 1.0, -1.5e-308, 3.14159,
                                      1e301, -7.25};
  std::vector<double> back(values.size());
  dist::unpack_doubles(dist::pack_doubles(values), back);
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::signbit(back[i]), std::signbit(values[i]));
    EXPECT_EQ(back[i], values[i]);
  }
}

TEST(DistTransport, FrameRoundTripOverSocketPair) {
  FaultGuard guard;
  dist::Socket a, b;
  dist::Socket::make_pair(a, b);
  dist::Frame frame;
  frame.type = dist::MsgType::kGradContrib;
  frame.epoch = 42;
  frame.rank = 3;
  frame.payload = std::string("payload\0with\0nuls", 17);
  dist::send_frame(a, frame, /*self_rank=*/3);
  const auto got = dist::recv_frame(b, /*timeout_ms=*/1000, /*peer_rank=*/3);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, dist::MsgType::kGradContrib);
  EXPECT_EQ(got->epoch, 42);
  EXPECT_EQ(got->rank, 3);
  EXPECT_EQ(got->payload, frame.payload);
}

TEST(DistTransport, GarbageBytesSurfaceStructuredError) {
  dist::Socket a, b;
  dist::Socket::make_pair(a, b);
  const char junk[40] = "this is not a qpinn frame at all!!";
  ASSERT_EQ(::write(a.fd(), junk, sizeof(junk)),
            static_cast<ssize_t>(sizeof(junk)));
  EXPECT_THROW(dist::recv_frame(b, 1000, /*peer_rank=*/1),
               dist::TransportError);
}

// Committed fuzz inputs (fuzz/corpus|artifacts/frame_decode, regenerated
// by fuzz_gen_seeds): valid seeds must round-trip through
// decode_frame/encode_frame bit-exactly, and every minimized adversarial
// artifact must be rejected with a structured TransportError before any
// payload allocation happens.
std::string read_fuzz_input(const std::string& rel) {
  std::ifstream in(std::string(QPINN_FUZZ_DIR) + "/" + rel,
                   std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_FALSE(bytes.empty()) << "missing fuzz input " << rel;
  return bytes;
}

TEST(DistTransport, FuzzCorpusFramesRoundTripThroughDecode) {
  for (const char* rel : {"corpus/frame_decode/hello.bin",
                          "corpus/frame_decode/grad_contrib.bin"}) {
    SCOPED_TRACE(rel);
    const std::string bytes = read_fuzz_input(rel);
    const dist::Frame frame = dist::decode_frame(bytes.data(), bytes.size());
    EXPECT_EQ(dist::encode_frame(frame), bytes);
  }
}

TEST(DistTransport, FuzzArtifactsRejectWithStructuredErrors) {
  struct Case {
    const char* rel;            // under fuzz/artifacts/frame_decode
    const char* expect_substr;  // diagnostic the error must carry
  };
  const Case cases[] = {
      {"unknown_type.bin", "unknown message type"},
      {"oversized_len.bin", "exceeds the frame cap"},
      {"length_mismatch.bin", "disagrees with"},
      {"bad_crc.bin", "CRC mismatch"},
      {"short_buffer.bin", "shorter than frame header"},
  };
  for (const Case& test_case : cases) {
    SCOPED_TRACE(test_case.rel);
    const std::string bytes = read_fuzz_input(
        std::string("artifacts/frame_decode/") + test_case.rel);
    try {
      dist::decode_frame(bytes.data(), bytes.size());
      ADD_FAILURE() << "expected TransportError";
    } catch (const dist::TransportError& err) {
      EXPECT_NE(std::string(err.what()).find(test_case.expect_substr),
                std::string::npos)
          << "got: " << err.what();
    }
  }
}

TEST(DistTransport, RecvTimesOutCleanlyAndEofThrowsPeerLost) {
  dist::Socket a, b;
  dist::Socket::make_pair(a, b);
  EXPECT_FALSE(dist::recv_frame(b, /*timeout_ms=*/50, 1).has_value());
  a.close();
  EXPECT_THROW(dist::recv_frame(b, 1000, 1), dist::PeerLostError);
}

TEST(DistTransport, ConnectToMissingEndpointExhaustsRetries) {
  dist::TransportOptions opts;
  opts.max_retries = 1;
  opts.backoff_initial_ms = 10;
  opts.backoff_max_ms = 20;
  try {
    dist::connect_peer("/tmp/qpinn_dt_no_such_endpoint.sock", opts,
                       /*self_rank=*/3);
    FAIL() << "connect_peer should have thrown";
  } catch (const dist::TransportError& e) {
    EXPECT_EQ(e.op(), "connect");
    EXPECT_EQ(e.rank(), 3);
    EXPECT_EQ(e.attempts(), 2);  // retries + 1
  }
}

// ---- loopback all-reduce --------------------------------------------------

TEST(DistCommunicator, WorldOneAllreduceIsIdentity) {
  auto comms = dist::Communicator::loopback(1);
  ASSERT_EQ(comms.size(), 1u);
  std::vector<double> buffer = {1.5, -2.5};
  comms[0]->allreduce(buffer, /*epoch=*/0);
  EXPECT_EQ(buffer[0], 1.5);
  EXPECT_EQ(buffer[1], -2.5);
}

TEST(DistCommunicator, LoopbackAllreduceSumsInRankOrder) {
  FaultGuard guard;
  for (std::int64_t world : {2, 4}) {
    auto comms = dist::Communicator::loopback(world);
    std::vector<std::vector<double>> buffers(
        static_cast<std::size_t>(world));
    std::vector<std::thread> ranks;
    for (std::int64_t r = 0; r < world; ++r) {
      ranks.emplace_back([&, r] {
        auto& buf = buffers[static_cast<std::size_t>(r)];
        for (std::int64_t epoch = 0; epoch < 3; ++epoch) {
          buf = {static_cast<double>(r + 1), 0.125 * static_cast<double>(r)};
          comms[static_cast<std::size_t>(r)]->allreduce(buf, epoch);
        }
      });
    }
    for (auto& t : ranks) t.join();
    // sum of r+1 over ranks and of r/8 over ranks, reduced in rank order.
    double expect0 = 0.0, expect1 = 0.0;
    for (std::int64_t r = 0; r < world; ++r) {
      expect0 += static_cast<double>(r + 1);
      expect1 += 0.125 * static_cast<double>(r);
    }
    for (std::int64_t r = 0; r < world; ++r) {
      EXPECT_EQ(buffers[static_cast<std::size_t>(r)][0], expect0)
          << "world " << world << " rank " << r;
      EXPECT_EQ(buffers[static_cast<std::size_t>(r)][1], expect1)
          << "world " << world << " rank " << r;
    }
  }
}

// ---- fault injection ------------------------------------------------------

TEST(DistFault, DroppedContributionIsRetransmitted) {
  FaultGuard guard;
  auto& injector = FaultInjector::instance();
  injector.set_fault_rank(1);
  injector.arm(kFaultDistDropMsg, /*at=*/0, /*count=*/1);

  dist::TransportOptions opts;
  opts.message_timeout_ms = 100;
  opts.heartbeat_timeout_ms = 5000;
  auto comms = dist::Communicator::loopback(2, opts);

  std::vector<double> root_buf = {1.0};
  std::vector<double> worker_buf = {2.0};
  std::thread worker(
      [&] { comms[1]->allreduce(worker_buf, /*epoch=*/0); });
  comms[0]->allreduce(root_buf, /*epoch=*/0);
  worker.join();

  EXPECT_EQ(root_buf[0], 3.0);
  EXPECT_EQ(worker_buf[0], 3.0);
  EXPECT_GE(comms[1]->stats().retransmits, 1);
}

TEST(DistFault, RetryExhaustionSurfacesStructuredError) {
  FaultGuard guard;
  auto& injector = FaultInjector::instance();
  injector.set_fault_rank(1);
  injector.arm(kFaultDistDropMsg, /*at=*/0, /*count=*/1000000);

  dist::TransportOptions opts;
  opts.message_timeout_ms = 50;
  opts.heartbeat_timeout_ms = 400;
  opts.max_retries = 2;
  auto comms = dist::Communicator::loopback(2, opts);

  std::exception_ptr root_error, worker_error;
  std::thread worker([&] {
    std::vector<double> buf = {2.0};
    try {
      comms[1]->allreduce(buf, 0);
    } catch (...) {
      worker_error = std::current_exception();
    }
  });
  std::vector<double> buf = {1.0};
  try {
    comms[0]->allreduce(buf, 0);
  } catch (...) {
    root_error = std::current_exception();
  }
  worker.join();

  // The worker's entire retry budget evaporates into the drop window and
  // surfaces as a structured TransportError with the attempt count.
  ASSERT_TRUE(worker_error);
  try {
    std::rethrow_exception(worker_error);
  } catch (const dist::TransportError& e) {
    EXPECT_EQ(e.op(), "allreduce");
    EXPECT_EQ(e.rank(), 1);
    EXPECT_EQ(e.attempts(), 3);  // max_retries + 1
  }
  // The root, hearing nothing, declares the rank lost at the heartbeat
  // deadline.
  ASSERT_TRUE(root_error);
  try {
    std::rethrow_exception(root_error);
  } catch (const dist::PeerLostError& e) {
    EXPECT_EQ(e.rank(), 1);
  }
  ASSERT_EQ(comms[0]->lost_ranks().size(), 1u);
  EXPECT_EQ(comms[0]->lost_ranks()[0], 1);
}

TEST(DistFault, HeartbeatTimeoutDetectsDelayedRank) {
  FaultGuard guard;
  auto& injector = FaultInjector::instance();
  injector.set_fault_rank(1);
  injector.set_delay_ms(400);
  injector.arm(kFaultDistDelay, /*at=*/0, /*count=*/1000000);

  dist::TransportOptions opts;
  opts.message_timeout_ms = 100;
  opts.heartbeat_timeout_ms = 150;
  opts.max_retries = 1;
  auto comms = dist::Communicator::loopback(2, opts);

  std::exception_ptr root_error, worker_error;
  std::thread worker([&] {
    std::vector<double> buf = {2.0};
    try {
      comms[1]->allreduce(buf, 0);
    } catch (...) {
      worker_error = std::current_exception();
    }
  });
  std::vector<double> buf = {1.0};
  try {
    comms[0]->allreduce(buf, 0);
  } catch (...) {
    root_error = std::current_exception();
  }
  worker.join();

  // A rank that is alive but slower than the heartbeat deadline is
  // indistinguishable from a dead one by design: the root must not stall
  // the healthy ranks waiting for it.
  ASSERT_TRUE(root_error);
  EXPECT_THROW(std::rethrow_exception(root_error), dist::PeerLostError);
  ASSERT_EQ(comms[0]->lost_ranks().size(), 1u);
  EXPECT_EQ(comms[0]->lost_ranks()[0], 1);
  ASSERT_TRUE(worker_error);
}

// ---- recovery: graceful degrade ------------------------------------------

TEST(DistRecovery, DegradeCompactsSurvivorsAndContinues) {
  FaultGuard guard;
  dist::TransportOptions opts;
  opts.message_timeout_ms = 100;
  opts.heartbeat_timeout_ms = 500;
  auto comms = dist::Communicator::loopback(3, opts);  // policy: kDegrade

  std::vector<double> sums_seen[2];
  std::exception_ptr errors[2];
  auto survivor = [&](std::int64_t r) {
    try {
      auto comm = comms[static_cast<std::size_t>(r)];
      std::vector<double> buf = {static_cast<double>(10 * (r + 1))};
      comm->allreduce(buf, /*epoch=*/0);  // full world: 10+20+30
      sums_seen[r].push_back(buf[0]);
      for (std::int64_t epoch = 1; epoch < 3; ++epoch) {
        buf = {static_cast<double>(10 * (r + 1))};
        try {
          comm->allreduce(buf, epoch);
        } catch (const dist::PeerLostError&) {
          const dist::RankContext ctx = comm->recover("");
          EXPECT_EQ(ctx.world, 2);
          buf = {static_cast<double>(10 * (r + 1))};
          comm->allreduce(buf, epoch);  // retry the aborted epoch
        }
        sums_seen[r].push_back(buf[0]);
      }
    } catch (...) {
      errors[r] = std::current_exception();
    }
  };

  std::thread rank1([&] { survivor(1); });
  std::thread rank2([&] {
    // Rank 2 participates in epoch 0, then "dies" (stream closes).
    std::vector<double> buf = {30.0};
    comms[2]->allreduce(buf, 0);
    comms[2].reset();
  });
  survivor(0);
  rank1.join();
  rank2.join();

  for (int r = 0; r < 2; ++r) {
    if (errors[r]) std::rethrow_exception(errors[r]);
    ASSERT_EQ(sums_seen[r].size(), 3u) << "rank " << r;
    EXPECT_EQ(sums_seen[r][0], 60.0) << "rank " << r;  // 10+20+30
    EXPECT_EQ(sums_seen[r][1], 30.0) << "rank " << r;  // 10+20 post-degrade
    EXPECT_EQ(sums_seen[r][2], 30.0) << "rank " << r;
  }
  EXPECT_EQ(comms[0]->world(), 2);
  EXPECT_GE(comms[0]->stats().recoveries, 1);
}

// A survivor always sends its contribution before it can read the abort. A
// contribution the aborted gather never consumed stays queued, and the
// retried epoch has the same epoch number, so the root must discard it:
// here rank 1 contributes 10 only after the root has aborted epoch 0, then
// retries with 20 on the degraded world, and the sum must be 1 + 20.
TEST(DistRecovery, RetriedEpochDiscardsStaleContribution) {
  FaultGuard guard;
  dist::TransportOptions opts;
  opts.message_timeout_ms = 100;
  opts.heartbeat_timeout_ms = 2000;
  auto comms = dist::Communicator::loopback(3, opts);  // policy: kDegrade
  comms[2].reset();  // rank 2 dies before epoch 0

  std::atomic<bool> root_aborted{false};
  double worker_sum = 0.0;
  std::exception_ptr worker_error;
  std::thread rank1([&] {
    try {
      while (!root_aborted.load()) std::this_thread::yield();
      std::vector<double> buf = {10.0};
      EXPECT_THROW(comms[1]->allreduce(buf, 0), dist::PeerLostError);
      EXPECT_EQ(comms[1]->recover("").world, 2);
      buf = {20.0};
      comms[1]->allreduce(buf, 0);
      worker_sum = buf[0];
    } catch (...) {
      worker_error = std::current_exception();
    }
  });
  std::vector<double> buf = {1.0};
  EXPECT_THROW(comms[0]->allreduce(buf, 0), dist::PeerLostError);
  root_aborted.store(true);
  EXPECT_EQ(comms[0]->recover("").world, 2);
  buf = {1.0};
  comms[0]->allreduce(buf, 0);
  rank1.join();
  if (worker_error) std::rethrow_exception(worker_error);
  EXPECT_EQ(buf[0], 21.0);
  EXPECT_EQ(worker_sum, 21.0);
}

// ---- trainer integration (loopback) ---------------------------------------

TEST(DistTrainer, RejectsThreadsAndDistCombination) {
  auto comms = dist::Communicator::loopback(2);
  auto problem = core::make_free_packet_problem();
  auto model = dist_tiny_model(*problem);
  core::TrainConfig config = dist_tiny_config(2, 0);
  config.threads = 2;
  config.dist = comms[0];
  EXPECT_THROW(core::Trainer(problem, model, config), ConfigError);
}

TEST(DistTrainer, LoopbackRanksMatchSingleProcessBitForBit) {
  FaultGuard guard;
  const std::int64_t epochs = 6;
  const std::int64_t resample = 2;
  const std::vector<Tensor> reference =
      run_single_process(/*threads=*/2, epochs, resample);
  const autodiff::plan::PlanStats before = autodiff::plan::plan_stats();

  set_global_threads(1);
  auto comms = dist::Communicator::loopback(2);
  std::vector<std::shared_ptr<core::FieldModel>> models;
  std::vector<std::unique_ptr<core::Trainer>> trainers;
  for (std::int64_t r = 0; r < 2; ++r) {
    auto problem = core::make_free_packet_problem();
    auto model = dist_tiny_model(*problem);
    core::TrainConfig config = dist_tiny_config(epochs, resample);
    config.dist = comms[static_cast<std::size_t>(r)];
    trainers.push_back(
        std::make_unique<core::Trainer>(problem, model, config));
    models.push_back(model);
  }
  std::exception_ptr worker_error;
  std::thread worker([&] {
    try {
      trainers[1]->fit();
    } catch (...) {
      worker_error = std::current_exception();
    }
  });
  const core::TrainResult root_result = trainers[0]->fit();
  worker.join();
  if (worker_error) std::rethrow_exception(worker_error);

  EXPECT_EQ(root_result.history.size(), static_cast<std::size_t>(epochs));
  // Each rank captures its shard on epoch 0 and replays it afterwards (the
  // in-place resample keeps the plan), exactly like a threads-mode shard.
  if (trainers[0]->graph_enabled()) {
    const autodiff::plan::PlanStats after = autodiff::plan::plan_stats();
    for (const auto& trainer : trainers) {
      EXPECT_EQ(trainer->captured_plans().size(), 1u);
    }
    EXPECT_EQ(after.plans_captured - before.plans_captured, 2u);
    EXPECT_EQ(after.fallbacks, before.fallbacks);
    EXPECT_EQ(after.replays - before.replays,
              static_cast<std::uint64_t>(2 * (epochs - 1)));
  }
  // Every rank holds the same parameters, and they are bit-identical to
  // the single-process threads=2 run: same shard partition, same
  // rank-ordered reduction.
  expect_bit_identical(snapshot_params(*models[0]), reference,
                       "rank0 vs single-process");
  expect_bit_identical(snapshot_params(*models[1]), reference,
                       "rank1 vs single-process");
}

// More ranks than interior rows: the step runs min(world, rows) shards, and
// every rank past the last shard contributes exact zeros to the all-reduce.
// Each case trains `world` loopback ranks on the first `rows` interior rows
// and compares bitwise against a single process with threads = world.
TEST(DistTrainer, LoopbackRanksMatchThreadsWhenRanksExceedRows) {
  FaultGuard guard;
  struct Case {
    std::int64_t world;
    std::int64_t rows;
  };
  for (const Case c : {Case{3, 2}, Case{4, 3}}) {
    SCOPED_TRACE("world " + std::to_string(c.world) + " on " +
                 std::to_string(c.rows) + " rows");
    set_global_threads(1);
    std::vector<std::shared_ptr<core::FieldModel>> models;
    const auto make_trainer = [&](std::size_t threads,
                                  std::shared_ptr<dist::Communicator> comm) {
      auto problem = core::make_free_packet_problem();
      auto model = dist_tiny_model(*problem);
      core::TrainConfig config = dist_tiny_config(/*epochs=*/4, 0);
      config.threads = threads;
      config.dist = std::move(comm);
      auto trainer = std::make_unique<core::Trainer>(problem, model, config);
      trainer->replace_interior(
          kernels::slice_rows(trainer->collocation().interior, 0, c.rows));
      models.push_back(model);
      return trainer;
    };

    make_trainer(static_cast<std::size_t>(c.world), nullptr)->fit();
    const std::vector<Tensor> reference = snapshot_params(*models[0]);
    models.clear();

    auto comms = dist::Communicator::loopback(c.world);
    std::vector<std::unique_ptr<core::Trainer>> trainers;
    for (const auto& comm : comms) trainers.push_back(make_trainer(1, comm));
    const std::uint64_t fallbacks0 = autodiff::plan::plan_stats().fallbacks;
    std::vector<std::exception_ptr> errors(comms.size());
    std::vector<std::thread> workers;
    for (std::size_t r = 1; r < trainers.size(); ++r) {
      workers.emplace_back([&, r] {
        try {
          trainers[r]->fit();
        } catch (...) {
          errors[r] = std::current_exception();
        }
      });
    }
    try {
      trainers[0]->fit();
    } catch (...) {
      errors[0] = std::current_exception();
    }
    for (std::thread& worker : workers) worker.join();
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }

    for (std::size_t r = 0; r < models.size(); ++r) {
      expect_bit_identical(snapshot_params(*models[r]), reference,
                           "rank " + std::to_string(r) + " vs threads");
    }
    // A rank past the last shard keeps no plan and, with nothing to
    // invalidate, counts no fallback on any step.
    for (std::size_t r = static_cast<std::size_t>(c.rows); r < trainers.size();
         ++r) {
      EXPECT_TRUE(trainers[r]->captured_plans().empty()) << "rank " << r;
    }
    EXPECT_EQ(autodiff::plan::plan_stats().fallbacks, fallbacks0);
  }
}

TEST(DistTrainer, StopIsSynchronizedAcrossRanks) {
  FaultGuard guard;
  set_global_threads(1);
  auto comms = dist::Communicator::loopback(2);
  std::vector<std::unique_ptr<core::Trainer>> trainers;
  for (std::int64_t r = 0; r < 2; ++r) {
    auto problem = core::make_free_packet_problem();
    auto model = dist_tiny_model(*problem);
    core::TrainConfig config = dist_tiny_config(/*epochs=*/6, 0);
    config.dist = comms[static_cast<std::size_t>(r)];
    trainers.push_back(
        std::make_unique<core::Trainer>(problem, model, config));
  }
  // Only rank 0 requests the stop; the flag travels inside the reduction
  // buffer so both ranks leave the loop after the same epoch.
  trainers[0]->request_stop();

  core::TrainResult results[2];
  std::exception_ptr worker_error;
  std::thread worker([&] {
    try {
      results[1] = trainers[1]->fit();
    } catch (...) {
      worker_error = std::current_exception();
    }
  });
  results[0] = trainers[0]->fit();
  worker.join();
  if (worker_error) std::rethrow_exception(worker_error);

  EXPECT_TRUE(results[0].interrupted);
  EXPECT_TRUE(results[1].interrupted);
  EXPECT_EQ(results[0].history.size(), 1u);
  EXPECT_EQ(results[1].history.size(), 1u);
}

// ---- trainer integration (multi-process) ----------------------------------

TEST(DistTrainer, MultiProcessRanksMatchSingleProcessBitForBit) {
  FaultGuard guard;
  const std::vector<Tensor> ref2 = run_single_process(2, 6, 2);
  DistRunSpec spec;
  spec.world = 2;
  spec.epochs = 6;
  spec.resample_every = 2;
  spec.tag = "bitid2";
  const DistRunResult run = run_dist_training(spec);
  EXPECT_EQ(run.failed_children, 0);
  EXPECT_EQ(run.result.rank_failures, 0);
  expect_bit_identical(run.params, ref2, "2-rank dist vs threads=2");

  const std::vector<Tensor> ref4 = run_single_process(4, 4, 2);
  spec.world = 4;
  spec.epochs = 4;
  spec.tag = "bitid4";
  const DistRunResult run4 = run_dist_training(spec);
  EXPECT_EQ(run4.failed_children, 0);
  expect_bit_identical(run4.params, ref4, "4-rank dist vs threads=4");
}

TEST(DistTrainer, KilledRankRejoinsAndFinishesBitForBit) {
  FaultGuard guard;
  DistRunSpec clean;
  clean.world = 2;
  clean.epochs = 8;
  clean.resample_every = 2;
  clean.tag = "clean";
  const DistRunResult uninterrupted = run_dist_training(clean);
  ASSERT_EQ(uninterrupted.failed_children, 0);
  ASSERT_EQ(uninterrupted.result.rank_failures, 0);

  DistRunSpec faulted = clean;
  faulted.tag = "killed";
  faulted.kill_rank = 1;
  faulted.kill_epoch = 4;  // a resample epoch: exercises the RNG rollback
  const DistRunResult survived = run_dist_training(faulted);

  // Rank 1 called _exit(137) at epoch 4; rank 0 detected the loss,
  // checkpointed, restarted it via the launcher, re-synced it from
  // last.qckpt + kSync, and the job finished all 8 epochs with final
  // parameters bit-identical to the uninterrupted run.
  EXPECT_EQ(survived.result.rank_failures, 1);
  EXPECT_EQ(survived.failed_children, 0);
  EXPECT_EQ(survived.result.history.size(), 8u);
  expect_bit_identical(survived.params, uninterrupted.params,
                       "kill+rejoin vs uninterrupted");
}

// A rank lost at epoch 0: the root has captured its plan when the
// all-reduce fails, the restarted rank captures afresh, and the retried
// epoch must still produce the uninterrupted run's bits. Under mixed
// precision that is the fp64 epoch-0 step on both ranks, so the root runs
// the retry eager instead of replaying its demoted plan.
TEST(DistTrainer, RankKilledAtEpochZeroRejoinsBitForBit) {
  FaultGuard guard;
  DistRunSpec clean;
  clean.world = 2;
  clean.epochs = 4;
  clean.resample_every = 2;
  clean.tag = "clean0";
  const DistRunResult uninterrupted = run_dist_training(clean);
  ASSERT_EQ(uninterrupted.failed_children, 0);

  DistRunSpec faulted = clean;
  faulted.tag = "killed0";
  faulted.kill_rank = 1;
  faulted.kill_epoch = 0;
  const DistRunResult survived = run_dist_training(faulted);
  EXPECT_EQ(survived.result.rank_failures, 1);
  EXPECT_EQ(survived.failed_children, 0);
  EXPECT_EQ(survived.result.history.size(), 4u);
  expect_bit_identical(survived.params, uninterrupted.params,
                       "kill at epoch 0 + rejoin vs uninterrupted");
}

// Graceful degrade at an epoch that does not resample: the interior keeps
// its identity, yet every survivor's row range changes (world 3 -> 2: rank
// 0 goes from rows [0, 22) to [0, 32), rank 1 from [22, 43) to [32, 64)).
// The plans are keyed on world and rank, so the survivors re-capture and
// finish bit-identical to the eager run of the same scenario. With the
// membership fields taken out of PlanKey, rank 0 replays its world-3 shard
// after the degrade and this test fails.
TEST(DistTrainer, DegradeAtNonResampleEpochRecapturesBitForBit) {
  FaultGuard guard;
  Fp64Pin fp64;
  DistRunSpec spec;
  spec.world = 3;
  spec.epochs = 6;
  spec.resample_every = 2;
  spec.kill_rank = 2;
  spec.kill_epoch = 3;
  spec.policy = dist::FailurePolicy::kDegrade;

  spec.tag = "degrade_eager";
  spec.graph = core::GraphMode::kOff;
  const DistRunResult eager = run_dist_training(spec);

  spec.tag = "degrade_replay";
  spec.graph = core::GraphMode::kOn;
  const autodiff::plan::PlanStats before = autodiff::plan::plan_stats();
  const DistRunResult replayed = run_dist_training(spec);
  const autodiff::plan::PlanStats after = autodiff::plan::plan_stats();

  for (const DistRunResult* run : {&eager, &replayed}) {
    EXPECT_EQ(run->result.rank_failures, 1);
    EXPECT_EQ(run->result.history.size(), 6u);
    EXPECT_EQ(run->failed_children, 1);  // the killed rank exits 137
  }
  EXPECT_GE(after.fallbacks - before.fallbacks, 1u);
  EXPECT_GE(after.replays - before.replays, 4u);
  expect_bit_identical(replayed.params, eager.params,
                       "degrade replay vs degrade eager");
}

// Graceful degrade under whatever precision and graph mode the suite runs
// in: losing rank 2 of 3 at epoch 3 and retrying that epoch on the two
// survivors trains exactly like a threads = 3 run checkpointed after epoch
// 2 and resumed with threads = 2. Both re-capture at epoch 3; under mixed
// precision both then run their demoted plans there, as an unbroken run's
// replay would. With the membership fields taken out of PlanKey, rank 0
// replays its world-3 shard after the degrade and this test fails in fp64
// and mixed alike.
TEST(DistTrainer, DegradeMatchesThreadsRunResumedOnTheSurvivors) {
  FaultGuard guard;
  DistRunSpec spec;
  spec.world = 3;
  spec.epochs = 6;
  spec.resample_every = 2;
  spec.kill_rank = 2;
  spec.kill_epoch = 3;
  spec.policy = dist::FailurePolicy::kDegrade;
  spec.tag = "degrade_env";
  const DistRunResult degraded = run_dist_training(spec);
  EXPECT_EQ(degraded.result.rank_failures, 1);
  EXPECT_EQ(degraded.result.history.size(), 6u);

  set_global_threads(1);
  auto problem = core::make_free_packet_problem();
  core::CheckpointConfig ck;
  ck.dir = ::testing::TempDir() + "qpinn_dist_degrade_ref";
  {
    // Same schedule as the 6-epoch job (lr_decay_every follows epochs),
    // stopped after epoch 2.
    core::TrainConfig config =
        dist_tiny_config(spec.epochs, spec.resample_every);
    config.epochs = spec.kill_epoch;
    config.threads = 3;
    config.checkpoint = ck;
    core::Trainer(problem, dist_tiny_model(*problem), config).fit();
  }
  auto model = dist_tiny_model(*problem);
  core::TrainConfig config = dist_tiny_config(spec.epochs, spec.resample_every);
  config.threads = 2;
  config.resume_from = ck.dir + "/last.qckpt";
  core::Trainer(problem, model, config).fit();
  expect_bit_identical(degraded.params, snapshot_params(*model),
                       "degrade 3 -> 2 vs threads 3 -> 2 resumed");
}

// Dist twin of PlanTrainer.CaptureStepPeaksAtEagerPoolHighWater: a dist
// rank's capture step peaks at its eager step's pool high-water (or what
// the plan keeps after it), plus the plan's host-built constants. Rank 0 of
// a launcher job owns this process's pool, so the gauges are exact;
// loopback ranks would share one pool and interleave.
TEST(DistTrainer, CaptureStepPeaksAtEagerPoolHighWater) {
  FaultGuard guard;
  ScopedEnv plan_opt("QPINN_PLAN_OPT", "on");  // verbatim plans bind more
  StoragePool& pool = StoragePool::instance();
  const bool pool_was_enabled = pool.enabled();
  pool.set_enabled(true);
  struct StepMemory {
    std::int64_t high_water = 0;
    std::int64_t live_after = 0;
    std::int64_t constants = 0;
  };
  const auto first_step_memory = [&](core::GraphMode graph) {
    DistRunSpec spec;
    spec.world = 2;
    spec.epochs = 1;
    spec.resample_every = 0;
    spec.graph = graph;
    spec.tag = graph == core::GraphMode::kOn ? "mem_capture" : "mem_eager";
    DistJob job = start_dist_job(spec);
    pool.reset_high_water();
    const auto live0 = static_cast<std::int64_t>(pool.stats().live_bytes);
    job.trainer->step(0);
    const StoragePoolStats s = pool.stats();
    StepMemory m;
    m.high_water = static_cast<std::int64_t>(s.live_high_water_bytes) - live0;
    m.live_after = static_cast<std::int64_t>(s.live_bytes) - live0;
    for (const autodiff::plan::ExecutionPlan* p :
         job.trainer->captured_plans()) {
      m.constants += static_cast<std::int64_t>(p->constant_bytes());
    }
    EXPECT_EQ(job.trainer->captured_plans().size(),
              graph == core::GraphMode::kOn ? 1u : 0u);
    job.trainer.reset();
    EXPECT_EQ(job.launcher->wait_all(/*timeout_ms=*/20000), 0);
    return m;
  };
  const StepMemory eager = first_step_memory(core::GraphMode::kOff);
  const StepMemory capture = first_step_memory(core::GraphMode::kOn);
  pool.set_enabled(pool_was_enabled);
  EXPECT_GT(eager.high_water, 0);
  EXPECT_LE(capture.high_water,
            std::max(eager.high_water, capture.live_after) +
                capture.constants);
}

// ---- CI fault matrix ------------------------------------------------------

// CI's fault-matrix job runs exactly this test under each QPINN_FAULT_*
// environment mode; without any armed mode it skips, so plain test runs
// are unaffected.
TEST(DistFaultMatrix, SurvivesEnvConfiguredFault) {
  auto& injector = FaultInjector::instance();
  const bool drop_armed = env_int("QPINN_FAULT_DROP_MSG", -1) >= 0;
  const bool delay_armed = injector.delay_ms() > 0;
  const bool kill_armed = injector.kill_rank() >= 0;
  if (!drop_armed && !delay_armed && !kill_armed) {
    GTEST_SKIP() << "no QPINN_FAULT_* dist mode armed in the environment";
  }

  if (kill_armed) {
    // Full elastic-rejoin run driven entirely by the inherited
    // environment (workers inherit the kill knobs; replacements get the
    // disarm override from the launcher).
    DistRunSpec spec;
    spec.world = 2;
    spec.epochs = 8;
    spec.resample_every = 2;
    spec.tag = "matrix";
    const DistRunResult run = run_dist_training(spec);
    EXPECT_EQ(run.result.history.size(), 8u);
    EXPECT_GE(run.result.rank_failures, 1);
    EXPECT_EQ(run.failed_children, 0);
    return;
  }

  // Drop / delay modes: a tolerant retry budget must absorb the injected
  // fault without losing a single reduction.
  dist::TransportOptions opts;
  opts.message_timeout_ms = 300;
  opts.heartbeat_timeout_ms = 10000;
  opts.max_retries = 10;
  auto comms = dist::Communicator::loopback(2, opts);
  std::vector<double> sums[2];
  std::exception_ptr worker_error;
  std::thread worker([&] {
    try {
      for (std::int64_t epoch = 0; epoch < 3; ++epoch) {
        std::vector<double> buf = {2.0};
        comms[1]->allreduce(buf, epoch);
        sums[1].push_back(buf[0]);
      }
    } catch (...) {
      worker_error = std::current_exception();
    }
  });
  for (std::int64_t epoch = 0; epoch < 3; ++epoch) {
    std::vector<double> buf = {1.0};
    comms[0]->allreduce(buf, epoch);
    sums[0].push_back(buf[0]);
  }
  worker.join();
  if (worker_error) std::rethrow_exception(worker_error);
  for (int r = 0; r < 2; ++r) {
    ASSERT_EQ(sums[r].size(), 3u);
    for (double s : sums[r]) EXPECT_EQ(s, 3.0);
  }
}

}  // namespace

/// Worker-rank entry point: builds the same tiny job as the parent test
/// (coordinates from argv, job shape from the environment) and trains to
/// completion. A nonzero exit is counted by Launcher::wait_all and fails
/// the parent test.
int run_dist_worker(const dist::WorkerArgs& args) {
  try {
    auto problem = core::make_free_packet_problem();
    auto model = dist_tiny_model(*problem);
    core::TrainConfig config =
        dist_tiny_config(env_int(kEnvEpochs, 6), env_int(kEnvResample, 0));
    const std::string ckpt_dir = env_string(kEnvCkptDir);

    dist::DistConfig dc;
    dc.rank = args.rank;
    dc.world = args.world;
    dc.endpoint = args.endpoint;
    dc.rejoin = args.rejoin;
    dc.transport = dist::TransportOptions::from_env();
    config.dist = dist::Communicator::create(dc);
    if (args.rejoin) {
      if (ckpt_dir.empty()) {
        std::fprintf(stderr, "rejoin worker needs %s\n", kEnvCkptDir);
        return 1;
      }
      config.resume_from = ckpt_dir + "/last.qckpt";
    }

    core::Trainer trainer(problem, model, config);
    trainer.fit();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dist worker rank %lld failed: %s\n",
                 static_cast<long long>(args.rank), e.what());
    return 1;
  }
}

}  // namespace qpinn

int main(int argc, char** argv) {
  const qpinn::dist::WorkerArgs worker_args =
      qpinn::dist::parse_worker_argv(argc, argv);
  if (worker_args.is_worker) return qpinn::run_dist_worker(worker_args);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
