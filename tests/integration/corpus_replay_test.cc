// Replays every committed case in tests/integration/chaos_corpus/ (nemesis
// fault schedules) and tests/integration/schedule_corpus/ (oracle choice
// traces) through the one case loader, `harness::ReplayCaseFile`.
//
// Cases with an empty `violation_check` are regression guards that must
// replay clean. Cases naming one are known reproducers (guard-off
// conservation cases from the chaos shrink pipeline, mutation-armed
// conservation breaks) that must still produce exactly that violation — if
// one goes quiet, the reproducer rotted and should be regenerated. The
// deterministic simulator makes each replay bit-identical, which the
// determinism test pins.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/postmortem.h"

namespace samya::harness {
namespace {

struct Corpus {
  const char* dir;
  size_t min_cases;
};

constexpr Corpus kCorpora[] = {{CHAOS_CORPUS_DIR, 4},
                               {SCHEDULE_CORPUS_DIR, 5}};

/// Post-mortem bundles may sit next to a case after a replay; only bare
/// case files belong to the corpus.
bool IsDerivedArtifact(const std::filesystem::path& path) {
  const std::string stem = path.stem().string();
  const std::string suffix = "_postmortem";
  return stem.size() >= suffix.size() &&
         stem.compare(stem.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::vector<std::filesystem::path> CorpusFiles(const char* dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json" &&
        !IsDerivedArtifact(entry.path())) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<std::filesystem::path> AllCaseFiles() {
  std::vector<std::filesystem::path> files;
  for (const Corpus& corpus : kCorpora) {
    for (auto& path : CorpusFiles(corpus.dir)) files.push_back(path);
  }
  return files;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A replay that disagrees with its recording is exactly what the
/// post-mortem pipeline exists for: ship the run's flight history next to
/// the failure output (DESIGN.md §8).
void DumpBundle(const std::filesystem::path& case_path,
                const PostmortemBundle& bundle) {
  const std::string out =
      (std::filesystem::temp_directory_path() /
       (case_path.stem().string() + "_postmortem.json")).string();
  if (WritePostmortem(bundle, out).ok()) {
    std::fprintf(stderr, "replay mismatch: post-mortem bundle at %s\n",
                 out.c_str());
  }
}

std::string VerdictName(const std::string& check) {
  return check.empty() ? std::string("a clean run") : "'" + check + "'";
}

TEST(CorpusReplayTest, CorporaAreNonEmpty) {
  for (const Corpus& corpus : kCorpora) {
    EXPECT_GE(CorpusFiles(corpus.dir).size(), corpus.min_cases)
        << "corpus went missing from " << corpus.dir;
  }
}

TEST(CorpusReplayTest, EveryCaseReplaysAsRecorded) {
  for (const auto& path : AllCaseFiles()) {
    SCOPED_TRACE(path.filename().string());
    const auto r = ReplayCaseFile(path.string(), "corpus_replay");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r.value().ops, 0u);
    const std::vector<AuditViolation>& vs = r.value().bundle.violations;
    EXPECT_TRUE(r.value().as_recorded)
        << "expected " << VerdictName(r.value().expected_check) << ", got "
        << VerdictName(r.value().failed_check)
        << (vs.empty() ? "" : " — first: " + vs.front().check + " at " +
                                  FormatDuration(vs.front().at) + ": " +
                                  vs.front().detail);
    if (!r.value().as_recorded) DumpBundle(path, r.value().bundle);
    // JSON round trip: parsing the case and serializing it again reproduces
    // the committed bytes, so no field is dropped or defaulted on the way
    // through the case structs.
    EXPECT_EQ(ReadFile(path), JsonDump(r.value().bundle.reproducer, 2));
  }
}

TEST(CorpusReplayTest, ReplayIsDeterministic) {
  // The corpus contract: a committed case reproduces bit-identically. Two
  // back-to-back replays must agree on the event count, the verdict, the
  // flight-recorder history, and (schedule cases) every scheduling
  // decision and decision-context hash.
  for (const auto& path : AllCaseFiles()) {
    SCOPED_TRACE(path.filename().string());
    const auto a = ReplayCaseFile(path.string(), "corpus_replay");
    const auto b = ReplayCaseFile(path.string(), "corpus_replay");
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().events_executed, b.value().events_executed);
    EXPECT_EQ(a.value().ops, b.value().ops);
    EXPECT_EQ(a.value().failed_check, b.value().failed_check);
    EXPECT_TRUE(JsonDump(a.value().bundle.flight) ==
                JsonDump(b.value().bundle.flight))
        << "flight-recorder histories differ";
    const auto& da = a.value().decisions;
    const auto& db = b.value().decisions;
    ASSERT_EQ(da.size(), db.size());
    for (size_t i = 0; i < da.size(); ++i) {
      EXPECT_EQ(da[i].chosen, db[i].chosen) << "decision " << i;
      EXPECT_EQ(da[i].state_hash, db[i].state_hash) << "decision " << i;
      EXPECT_EQ(da[i].num_candidates, db[i].num_candidates);
    }
  }
}

TEST(CorpusReplayTest, CorpusFilesAreCanonicalJson) {
  // Committed files stay in JsonDump's canonical indent-2 form, so
  // regenerating a case produces a minimal diff.
  for (const auto& path : AllCaseFiles()) {
    SCOPED_TRACE(path.filename().string());
    const std::string text = ReadFile(path);
    auto doc = JsonParse(text);
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(text, JsonDump(doc.value(), /*indent=*/2));
  }
}

}  // namespace
}  // namespace samya::harness
