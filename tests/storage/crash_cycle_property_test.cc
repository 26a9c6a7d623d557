// Crash-cycle property test for FileStableStorage: random Put/Delete
// sequences against an in-memory model, with a close/reopen cycle (the
// simulated crash — every op is synced, so a clean close and a crash leave
// the same bytes) injected throughout, plus occasional torn tails. A small
// compaction threshold keeps compactions frequent, so the test covers both
// historical durability bugs (compaction-from-stale-map, append-after-torn-
// tail) and future regressions in the same paths.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "common/random.h"
#include "storage/stable_storage.h"

namespace samya::storage {
namespace {

class CrashCycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("samya_crash_cycle_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "store.wal").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void AppendGarbage(Rng& rng) {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 11));
    for (size_t i = 0; i < n; ++i) {
      // 0xff never starts an intact record here: lengths stay small, so a
      // header beginning 0xff.. always reads as torn/corrupt.
      const uint8_t b = 0xff;
      std::fwrite(&b, 1, 1, f);
    }
    std::fclose(f);
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(CrashCycleTest, RandomOpsWithReopensMatchModel) {
  constexpr size_t kThreshold = 8;
  constexpr int kOps = 2000;
  constexpr int kKeys = 12;
  Rng rng(20260807);

  std::map<std::string, std::string> model;
  auto opened = FileStableStorage::Open(path_, kThreshold);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<FileStableStorage> store = std::move(*opened);

  auto check_matches_model = [&]() {
    ASSERT_EQ(store->Keys().size(), model.size());
    for (const auto& [k, v] : model) {
      auto got = store->GetString(k);
      ASSERT_TRUE(got.ok()) << "missing key " << k;
      ASSERT_EQ(*got, v) << "wrong value for key " << k;
    }
  };

  for (int op = 0; op < kOps; ++op) {
    const std::string key = "key" + std::to_string(rng.NextUint64(kKeys));
    if (rng.Bernoulli(0.7)) {
      const std::string value = std::string("v").append(std::to_string(op));
      ASSERT_TRUE(store->PutString(key, value).ok());
      model[key] = value;
    } else {
      ASSERT_TRUE(store->Delete(key).ok());
      model.erase(key);
    }

    // Crash/recover: every op is synced, so closing here is byte-equivalent
    // to a crash right after the op returned.
    if (rng.Bernoulli(0.05)) {
      store.reset();
      if (rng.Bernoulli(0.3)) AppendGarbage(rng);
      auto reopened = FileStableStorage::Open(path_, kThreshold);
      ASSERT_TRUE(reopened.ok()) << "reopen failed at op " << op;
      store = std::move(*reopened);
      check_matches_model();
    }
  }

  store.reset();
  auto reopened = FileStableStorage::Open(path_, kThreshold);
  ASSERT_TRUE(reopened.ok());
  store = std::move(*reopened);
  check_matches_model();
}

}  // namespace
}  // namespace samya::storage
