#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "core/benchmarks.hpp"
#include "core/checkpoint.hpp"
#include "core/trainer.hpp"
#include "fuzz/harness_model.hpp"
#include "nn/mlp.hpp"
#include "optim/adam.hpp"
#include "util/atomic_io.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace qpinn::core {
namespace {

/// Every test starts and ends with a disarmed injector.
class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::instance().clear(); }
  void TearDown() override { FaultInjector::instance().clear(); }

  std::string temp_path(const std::string& name) const {
    return ::testing::TempDir() + name;
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
}

nn::Mlp small_net(std::uint64_t seed) {
  nn::MlpConfig config;
  config.in_dim = 2;
  config.out_dim = 2;
  config.hidden = {6, 6};
  config.seed = seed;
  return nn::Mlp(config);
}

// ---- fault injector ----------------------------------------------------

TEST_F(CheckpointTest, FaultInjectorCountsAndFiresWindow) {
  auto& injector = FaultInjector::instance();
  injector.arm("test.site", /*at=*/2, /*count=*/2);
  EXPECT_FALSE(fault_fires("test.site"));  // hit 0
  EXPECT_FALSE(fault_fires("test.site"));  // hit 1
  EXPECT_TRUE(fault_fires("test.site"));   // hit 2 — armed
  EXPECT_TRUE(fault_fires("test.site"));   // hit 3 — armed
  EXPECT_FALSE(fault_fires("test.site"));  // hit 4 — past the window
  EXPECT_EQ(injector.hits("test.site"), 5);
  EXPECT_FALSE(fault_fires("unrelated.site"));
}

TEST_F(CheckpointTest, FaultInjectorArmsFromEnvironment) {
  ::setenv("QPINN_FAULT_SITE", "env.site", 1);
  ::setenv("QPINN_FAULT_AT", "1", 1);
  FaultInjector::instance().arm_from_env();
  EXPECT_FALSE(fault_fires("env.site"));
  EXPECT_TRUE(fault_fires("env.site"));
  EXPECT_FALSE(fault_fires("env.site"));
  ::unsetenv("QPINN_FAULT_SITE");
  ::unsetenv("QPINN_FAULT_AT");
}

// ---- atomic writes -----------------------------------------------------

TEST_F(CheckpointTest, AtomicWritePreservesOldContentOnInjectedCrash) {
  const std::string path = temp_path("atomic_victim.bin");
  write_file_atomic(path, [](std::ostream& out) { out << "generation one"; });
  ASSERT_EQ(read_file(path), "generation one");

  // The first write above already consumed a hit at this site; reset the
  // counter so the armed window covers the very next commit.
  FaultInjector::instance().clear();
  FaultInjector::instance().arm(kFaultAtomicWriteCommit, 0);
  EXPECT_THROW(write_file_atomic(
                   path, [](std::ostream& out) { out << "generation two"; }),
               IoError);
  // The destination still holds the previous generation and no temp file
  // was left behind.
  EXPECT_EQ(read_file(path), "generation one");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

// ---- full-state round trip ---------------------------------------------

TEST_F(CheckpointTest, FullStateRoundTripRestoresEverything) {
  nn::Mlp net = small_net(31);
  auto params = net.parameters();
  optim::Adam adam(params, optim::AdamConfig{});
  // Accumulate some real moments.
  std::vector<Tensor> grads;
  for (const auto& p : params) grads.push_back(Tensor::ones(p.value().shape()));
  adam.step(grads);
  adam.step(grads);

  TrainingState state;
  state.epoch = 41;
  state.lr_scale = 0.25;
  state.recoveries = 2;
  state.best_loss = 1.5e-3;
  state.optimizer = adam.export_state();
  Rng rng(99);
  rng.normal();  // populate the Box-Muller cache
  state.resample_rng = rng.state();
  state.interior = Tensor::from_vector({1, 2, 3, 4, 5, 6}, {3, 2});
  state.has_interior = true;

  const std::string path = temp_path("full_state.qckpt");
  Checkpointer::save_state(path, net.named_parameters(), state);

  nn::Mlp restored_net = small_net(32);  // different init
  const TrainingState loaded =
      Checkpointer::load_state(path, restored_net.named_parameters());

  EXPECT_EQ(loaded.epoch, 41);
  EXPECT_DOUBLE_EQ(loaded.lr_scale, 0.25);
  EXPECT_EQ(loaded.recoveries, 2);
  EXPECT_DOUBLE_EQ(loaded.best_loss, 1.5e-3);
  EXPECT_EQ(loaded.optimizer.step_count, 2);
  ASSERT_EQ(loaded.optimizer.slots.size(), state.optimizer.slots.size());
  for (std::size_t i = 0; i < loaded.optimizer.slots.size(); ++i) {
    const Tensor& a = state.optimizer.slots[i];
    const Tensor& b = loaded.optimizer.slots[i];
    ASSERT_TRUE(a.same_shape(b));
    for (std::int64_t j = 0; j < a.numel(); ++j) EXPECT_EQ(a[j], b[j]);
  }
  // RNG streams must continue identically.
  Rng replay(1);
  replay.set_state(loaded.resample_rng);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(replay.next_u64(), rng.next_u64());
  ASSERT_TRUE(loaded.has_interior);
  for (std::int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(loaded.interior[i], state.interior[i]);
  }
  // Parameters were loaded in place.
  const auto pa = net.parameters();
  const auto pb = restored_net.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::int64_t j = 0; j < pa[i].value().numel(); ++j) {
      EXPECT_EQ(pa[i].value()[j], pb[i].value()[j]);
    }
  }
  std::remove(path.c_str());
}

// ---- format versioning -------------------------------------------------

TEST_F(CheckpointTest, V1ParameterOnlyFileStillLoads) {
  nn::Mlp net = small_net(33);
  const std::string path = temp_path("legacy_v1.bin");
  {
    // A v1 file is the param block with no section table.
    std::ofstream out(path, std::ios::binary);
    nn::write_header(out, nn::kCheckpointVersionV1);
    nn::write_param_block(out, net.named_parameters());
  }
  nn::Mlp restored = small_net(34);
  nn::load_parameters(path, restored.named_parameters());
  const auto pa = net.parameters();
  const auto pb = restored.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::int64_t j = 0; j < pa[i].value().numel(); ++j) {
      EXPECT_EQ(pa[i].value()[j], pb[i].value()[j]);
    }
  }
  // ... but a v1 file cannot seed a resumed run.
  EXPECT_THROW(Checkpointer::load_state(path, restored.named_parameters()),
               IoError);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, V2ParamOnlyFileLoadsThroughLoadParameters) {
  nn::Mlp net = small_net(35);
  const std::string path = temp_path("v2_params.bin");
  nn::save_parameters(path, net.named_parameters());  // writes v2
  nn::Mlp restored = small_net(36);
  nn::load_parameters(path, restored.named_parameters());
  const auto pa = net.parameters();
  const auto pb = restored.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::int64_t j = 0; j < pa[i].value().numel(); ++j) {
      EXPECT_EQ(pa[i].value()[j], pb[i].value()[j]);
    }
  }
  std::remove(path.c_str());
}

// ---- corrupt / adversarial files ---------------------------------------

TEST_F(CheckpointTest, CorruptFieldsRejectedWithoutHugeAllocations) {
  nn::Mlp net = small_net(37);
  const std::string path = temp_path("corrupt.bin");
  nn::save_parameters(path, net.named_parameters());
  const std::string good = read_file(path);
  // Layout: magic(4) version(4) count(8) name_len(8) name(...) rank(8) ...
  const std::uint64_t name_len = net.named_parameters().front().first.size();

  auto corrupt_u64 = [&](std::size_t offset) {
    std::string bad = good;
    for (int i = 0; i < 8; ++i) bad[offset + i] = static_cast<char>(0xFF);
    write_file(path, bad);
  };

  corrupt_u64(8);  // parameter count
  EXPECT_THROW(nn::load_parameters(path, net.named_parameters()), IoError);

  corrupt_u64(16);  // name length
  EXPECT_THROW(nn::load_parameters(path, net.named_parameters()), IoError);

  corrupt_u64(24 + name_len);  // rank
  EXPECT_THROW(nn::load_parameters(path, net.named_parameters()), IoError);

  corrupt_u64(32 + name_len);  // first extent
  EXPECT_THROW(nn::load_parameters(path, net.named_parameters()), IoError);

  // Truncation anywhere must be an IoError, not a crash.
  write_file(path, good.substr(0, good.size() / 2));
  EXPECT_THROW(nn::load_parameters(path, net.named_parameters()), IoError);
  write_file(path, good.substr(0, 10));
  EXPECT_THROW(nn::load_parameters(path, net.named_parameters()), IoError);
  std::remove(path.c_str());
}

// ---- integrity trailer -------------------------------------------------

TEST_F(CheckpointTest, Crc32MatchesKnownAnswer) {
  // The standard CRC-32 check value ("123456789" -> 0xCBF43926).
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string_view("")), 0u);
  // Seeded continuation equals the one-shot digest.
  const std::string data = "split across two calls";
  const std::uint32_t oneshot = crc32(std::string_view(data));
  const std::uint32_t part = crc32(data.data(), 10);
  EXPECT_EQ(crc32(data.data() + 10, data.size() - 10, part), oneshot);
}

TEST_F(CheckpointTest, CrcTrailerDetectsSilentCorruption) {
  nn::Mlp net = small_net(43);
  TrainingState state;
  state.epoch = 12;
  const std::string path = temp_path("crc_victim.qckpt");
  Checkpointer::save_state(path, net.named_parameters(), state);

  // A single flipped bit anywhere in the body must fail the load loudly
  // instead of resuming from silently-corrupt state.
  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  write_file(path, bytes);
  try {
    Checkpointer::load_state(path, net.named_parameters());
    FAIL() << "corrupt checkpoint should not load";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC-32"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, TrailerlessFileFromOldWriterStillLoads) {
  nn::Mlp net = small_net(44);
  TrainingState state;
  state.epoch = 23;
  state.best_loss = 0.5;
  const std::string path = temp_path("legacy_no_crc.qckpt");
  Checkpointer::save_state(path, net.named_parameters(), state);

  // Strip the 8-byte trailer: exactly what a pre-CRC writer produced.
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 8u);
  write_file(path, bytes.substr(0, bytes.size() - 8));
  const TrainingState loaded =
      Checkpointer::load_state(path, net.named_parameters());
  EXPECT_EQ(loaded.epoch, 23);
  EXPECT_DOUBLE_EQ(loaded.best_loss, 0.5);
  std::remove(path.c_str());
}

// ---- committed fuzz corpus / artifact replay ---------------------------
//
// The inputs live in fuzz/corpus/checkpoint_load and
// fuzz/artifacts/checkpoint_load (QPINN_FUZZ_DIR, regenerated by
// fuzz_gen_seeds). Replaying them here keeps the hardening fixes covered
// in every build configuration, not just fuzzing ones.

std::string read_fuzz_input(const std::string& rel) {
  const std::string bytes = read_file(std::string(QPINN_FUZZ_DIR) + "/" + rel);
  EXPECT_FALSE(bytes.empty()) << "missing fuzz input " << rel;
  return bytes;
}

TEST_F(CheckpointTest, FuzzCorpusSeedStateLoads) {
  const std::string bytes =
      read_fuzz_input("corpus/checkpoint_load/full_state.qckpt");
  const TrainingState state = Checkpointer::load_state_from_bytes(
      bytes, fuzz::harness_params(), "fuzz-seed");
  EXPECT_EQ(state.epoch, 3);
  EXPECT_DOUBLE_EQ(state.lr_scale, 0.5);
  EXPECT_EQ(state.recoveries, 1);
  EXPECT_DOUBLE_EQ(state.best_loss, 2.5e-2);
  ASSERT_TRUE(state.has_interior);
  EXPECT_EQ(state.interior.shape(), (Shape{4, 2}));
}

TEST_F(CheckpointTest, FuzzArtifactsRejectWithStructuredErrors) {
  struct Case {
    const char* rel;            // under fuzz/artifacts/checkpoint_load
    bool checkpoint_error;      // CheckpointError, or base IoError from
                                // the shared parameter-block reader
  };
  const Case cases[] = {
      {"bitflip.qckpt", true},
      {"v1_reject.qckpt", true},
      {"truncated_no_trailer.qckpt", false},
      {"huge_section_len.qckpt", false},
      {"huge_tensor_extent.qckpt", false},
      {"huge_param_count.qckpt", false},
  };
  for (const Case& test_case : cases) {
    SCOPED_TRACE(test_case.rel);
    const std::string bytes = read_fuzz_input(
        std::string("artifacts/checkpoint_load/") + test_case.rel);
    const auto load = [&] {
      Checkpointer::load_state_from_bytes(bytes, fuzz::harness_params(),
                                          test_case.rel);
    };
    if (test_case.checkpoint_error) {
      EXPECT_THROW(load(), CheckpointError);
    } else {
      EXPECT_THROW(load(), IoError);
    }
  }
}

// ---- state peeking -----------------------------------------------------

TEST_F(CheckpointTest, PeekStateMatchesLoadWithoutNeedingParams) {
  nn::Mlp net = small_net(61);
  auto params = net.parameters();
  optim::Adam adam(params, optim::AdamConfig{});
  std::vector<Tensor> grads;
  for (const auto& p : params) grads.push_back(Tensor::ones(p.value().shape()));
  adam.step(grads);

  TrainingState state;
  state.epoch = 9;
  state.lr_scale = 0.5;
  state.recoveries = 1;
  state.best_loss = 0.125;
  state.optimizer = adam.export_state();
  const std::string path = temp_path("peek_state.qckpt");
  Checkpointer::save_state(path, net.named_parameters(), state);

  // No parameter set is supplied: the param block is skipped, every other
  // section (and the CRC trailer) is still decoded and validated.
  const TrainingState peeked = Checkpointer::peek_state(path);
  EXPECT_EQ(peeked.epoch, 9);
  EXPECT_DOUBLE_EQ(peeked.lr_scale, 0.5);
  EXPECT_EQ(peeked.recoveries, 1);
  EXPECT_DOUBLE_EQ(peeked.best_loss, 0.125);
  EXPECT_EQ(peeked.optimizer.step_count, 1);

  // Corruption is still caught even though the params are never read.
  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x20;
  const std::string corrupt = temp_path("peek_state_corrupt.qckpt");
  write_file(corrupt, bytes);
  EXPECT_THROW(Checkpointer::peek_state(corrupt), IoError);
  std::remove(path.c_str());
  std::remove(corrupt.c_str());
}

// ---- best_loss across resume -------------------------------------------

// Regression for the resume-then-worse bug: best.qckpt can carry a better
// best_loss than last.qckpt (best rotates whenever the loss improves,
// last only every N epochs), so a trainer resumed from last.qckpt used to
// believe a merely-okay epoch was a new best and overwrite the genuinely
// best checkpoint. The fix peeks best.qckpt on resume and keeps the
// smaller of the two.
TEST_F(CheckpointTest, ResumeDoesNotLetWorseEpochOverwriteBest) {
  const std::string dir = temp_path("resume_best_dir");
  std::filesystem::remove_all(dir);

  auto problem = make_free_packet_problem();
  TrainConfig config = default_train_config(/*epochs=*/3, /*seed=*/5);
  config.log_every = 0;
  config.eval_every = 0;
  config.sampling.n_interior_x = 8;
  config.sampling.n_interior_t = 8;
  config.sampling.n_initial = 16;
  config.sampling.n_boundary = 8;
  config.metric_nx = 16;
  config.metric_nt = 8;
  config.checkpoint = CheckpointConfig{};
  config.checkpoint->dir = dir;
  config.checkpoint->every = 1;
  auto model = make_model_for(*problem, /*seed=*/5);
  Trainer(problem, model, config).fit();

  const std::string best_file = dir + "/best.qckpt";
  const std::string last_file = dir + "/last.qckpt";
  ASSERT_TRUE(std::filesystem::exists(best_file));
  ASSERT_TRUE(std::filesystem::exists(last_file));

  // Forge the crash scenario directly: best.qckpt records an unbeatable
  // best_loss while last.qckpt's recovery section carries a stale, huge
  // one (best rotated after last's write, then the run died).
  TrainingState best_state =
      Checkpointer::load_state(best_file, model->named_parameters());
  best_state.best_loss = 1e-12;
  Checkpointer::save_state(best_file, model->named_parameters(), best_state);
  TrainingState last_state =
      Checkpointer::load_state(last_file, model->named_parameters());
  last_state.best_loss = 1e9;
  Checkpointer::save_state(last_file, model->named_parameters(), last_state);
  const std::string best_bytes = read_file(best_file);

  // Resume from last.qckpt and train on. Every resumed epoch improves on
  // the stale 1e9 but not on the real 1e-12 best, so best.qckpt must
  // survive byte for byte.
  TrainConfig more = config;
  more.epochs = 6;
  more.resume_from = last_file;
  auto resumed = make_model_for(*problem, /*seed=*/5);
  Trainer(problem, resumed, more).fit();
  EXPECT_EQ(read_file(best_file), best_bytes)
      << "a worse epoch overwrote best.qckpt after resume";
  std::filesystem::remove_all(dir);
}

// A problem that owns no trainable leaf adds nothing to the parameter
// block: the trainer's checkpoint is byte for byte the file save_state
// writes from the model's own named parameters.
TEST_F(CheckpointTest, LeaflessProblemCheckpointIsTheModelOnlyFile) {
  const std::string dir = temp_path("leafless_dir");
  std::filesystem::remove_all(dir);

  auto problem = make_free_packet_problem();
  TrainConfig config = default_train_config(/*epochs=*/3, /*seed=*/5);
  config.sampling.n_interior_x = 8;
  config.sampling.n_interior_t = 8;
  config.sampling.n_initial = 16;
  config.sampling.n_boundary = 8;
  config.metric_nx = 16;
  config.metric_nt = 8;
  config.checkpoint = CheckpointConfig{};
  config.checkpoint->dir = dir;
  auto model = make_model_for(*problem, /*seed=*/5);
  Trainer(problem, model, config).fit();

  const std::string last_file = dir + "/last.qckpt";
  const TrainingState state =
      Checkpointer::load_state(last_file, model->named_parameters());
  const std::string twin = temp_path("leafless_twin.qckpt");
  Checkpointer::save_state(twin, model->named_parameters(), state);
  EXPECT_EQ(read_file(last_file), read_file(twin));
  std::filesystem::remove_all(dir);
  std::filesystem::remove(twin);
}

// ---- rotating saves with write faults ----------------------------------

TEST_F(CheckpointTest, WriteFailureIsRetriedThenSucceeds) {
  nn::Mlp net = small_net(38);
  CheckpointConfig config;
  config.dir = temp_path("ckpt_retry");
  config.max_write_retries = 1;
  Checkpointer checkpointer(config);

  TrainingState state;
  state.epoch = 7;
  // First attempt fails, the retry lands.
  FaultInjector::instance().arm(kFaultAtomicWriteCommit, 0, 1);
  EXPECT_TRUE(checkpointer.save_last(net.named_parameters(), state));
  EXPECT_EQ(checkpointer.failed_writes(), 1);
  EXPECT_TRUE(std::filesystem::exists(checkpointer.last_path()));

  const TrainingState loaded =
      Checkpointer::load_state(checkpointer.last_path(),
                               net.named_parameters());
  EXPECT_EQ(loaded.epoch, 7);
  std::filesystem::remove_all(config.dir);
}

TEST_F(CheckpointTest, WriteFailureGivesUpGracefullyAfterRetries) {
  nn::Mlp net = small_net(39);
  CheckpointConfig config;
  config.dir = temp_path("ckpt_giveup");
  config.max_write_retries = 1;
  Checkpointer checkpointer(config);

  TrainingState state;
  FaultInjector::instance().arm(kFaultAtomicWriteCommit, 0, 2);
  EXPECT_FALSE(checkpointer.save_last(net.named_parameters(), state));
  EXPECT_EQ(checkpointer.failed_writes(), 2);
  EXPECT_FALSE(std::filesystem::exists(checkpointer.last_path()));
  std::filesystem::remove_all(config.dir);
}

TEST_F(CheckpointTest, ConfigValidation) {
  CheckpointConfig config;
  config.dir = "";
  EXPECT_THROW(config.validate(), ConfigError);
  config = CheckpointConfig{};
  config.every = -1;
  EXPECT_THROW(config.validate(), ConfigError);
  config = CheckpointConfig{};
  config.max_write_retries = -1;
  EXPECT_THROW(config.validate(), ConfigError);
}

}  // namespace
}  // namespace qpinn::core
