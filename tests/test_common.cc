// Tests for the common utilities: Status/Result, logging levels, the thread
// pool, the stopwatch, and the bench-artifact JSON section emitter.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "proto/permutation.h"
#include "tools/table_spec.h"
#include "tools/tool_util.h"

namespace sknn {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kInternal,
        StatusCode::kProtocolError, StatusCode::kCryptoError,
        StatusCode::kIoError, StatusCode::kNotFound,
        StatusCode::kResourceExhausted, StatusCode::kUnavailable}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::Internal("x"), Status::Internal("x"));
  EXPECT_FALSE(Status::Internal("x") == Status::Internal("y"));
}

Result<int> Half(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Result<int> QuarterViaMacro(int v) {
  SKNN_ASSIGN_OR_RETURN(int half, Half(v));
  SKNN_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> good = Half(8);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 4);
  EXPECT_EQ(*good, 4);

  Result<int> bad = Half(7);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(QuarterViaMacro(8).value(), 2);
  EXPECT_FALSE(QuarterViaMacro(6).ok());  // second Half fails (3 is odd)
  EXPECT_FALSE(QuarterViaMacro(7).ok());  // first Half fails
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> owned = std::move(r).value();
  EXPECT_EQ(*owned, 5);
}

TEST(LoggingTest, LevelFiltering) {
  LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SKNN_LOG(Info) << "must be suppressed";
  // Only SKNN_CHECK is fatal: an emitted error line returns to its caller.
  SKNN_LOG(Error) << "emitted, not fatal";
  SetLogLevel(before);
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 20; ++i) {
    futs.push_back(pool.Submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](std::size_t) { FAIL() << "must not run"; });
  int runs = 0;
  pool.ParallelFor(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.ParallelFor(10, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, ZeroRequestedBecomesOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

class MergeJsonSectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/merge_json_section_test.json";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string ReadFile() const {
    std::ifstream in(path_);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  std::string path_;
};

TEST_F(MergeJsonSectionTest, AppendsNewSectionsInOrder) {
  bench::MergeJsonSection(path_, "alpha", "{\"x\": 1}");
  bench::MergeJsonSection(path_, "beta", "[1, 2, 3]");
  EXPECT_EQ(ReadFile(),
            "{\n  \"alpha\": {\"x\": 1},\n  \"beta\": [1, 2, 3]\n}\n");
}

TEST_F(MergeJsonSectionTest, ReRunReplacesInPlaceWithoutTouchingNeighbors) {
  bench::MergeJsonSection(path_, "alpha", "{\"x\": 1}");
  bench::MergeJsonSection(path_, "beta", "{\"kept\": [1, {\"y\": 2}]}");
  bench::MergeJsonSection(path_, "gamma", "3.5");
  // The bug this pins down: re-emitting an existing section used to drop it
  // from its position and append it at the end, shuffling the artifact on
  // every re-run. It must be replaced where it stands, neighbors untouched.
  bench::MergeJsonSection(path_, "alpha", "{\"x\": 99}");
  EXPECT_EQ(ReadFile(),
            "{\n  \"alpha\": {\"x\": 99},\n"
            "  \"beta\": {\"kept\": [1, {\"y\": 2}]},\n"
            "  \"gamma\": 3.5\n}\n");
}

TEST_F(MergeJsonSectionTest, ReRunIsByteStable) {
  bench::MergeJsonSection(path_, "alpha", "{\"x\": 1}");
  bench::MergeJsonSection(path_, "beta", "2");
  std::string before = ReadFile();
  // Identical rewrites must be byte-identical fixpoints (no whitespace
  // accumulation in the untouched sections, no reordering).
  bench::MergeJsonSection(path_, "beta", "2");
  bench::MergeJsonSection(path_, "beta", "2");
  EXPECT_EQ(ReadFile(), before);
}

TEST_F(MergeJsonSectionTest, SurvivesTrickyValues) {
  // Values with nested objects, strings holding braces/commas/escapes, and
  // empty strings must round-trip through the member scanner.
  const std::string tricky =
      "{\"s\": \"a, \\\"b\\\" {c}\", \"empty\": \"\", \"arr\": [[1], {}]}";
  bench::MergeJsonSection(path_, "alpha", tricky);
  bench::MergeJsonSection(path_, "beta", "1");
  bench::MergeJsonSection(path_, "beta", "2");
  EXPECT_EQ(ReadFile(),
            "{\n  \"alpha\": " + tricky + ",\n  \"beta\": 2\n}\n");
}

TEST(FatalCheckDeathTest, PermutationApplyAbortsOnShortInput) {
  // A failed SKNN_CHECK aborts instead of letting Apply build an answer
  // from an input shorter than the permutation.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Permutation pi(4);
  const std::vector<int> short_input = {1, 2};
  EXPECT_DEATH((void)pi.Apply(short_input), "Permutation size mismatch");
  EXPECT_DEATH((void)pi.ApplyInverse(short_input),
               "Permutation size mismatch");
}

TEST(ToolFlagsTest, KnownFlagsParseInBothForms) {
  char prog[] = "tool", secret[] = "--secret", sk[] = "sk.txt",
       workers[] = "--workers=4", json[] = "--json";
  char* argv[] = {prog, secret, sk, workers, json};
  auto flags = tools::ParseFlags(5, argv, {"secret", "workers", "json"},
                                 "tool --secret <f> [--workers N] [--json]");
  EXPECT_EQ(flags.at("secret"), "sk.txt");
  EXPECT_EQ(flags.at("workers"), "4");
  EXPECT_EQ(flags.at("json"), "true");
}

TEST(ToolFlagsDeathTest, UnknownFlagPrintsUsageAndExits2) {
  // A misspelt flag must stop the tool, not be ignored: `--wrokers 4`
  // would otherwise start a one-worker server without a word.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const char* usage = "tool --secret <f> [--workers N]";
  char prog[] = "tool", secret[] = "--secret", sk[] = "sk.txt",
       typo[] = "--wrokers", four[] = "4", typo_eq[] = "--wrokers=4";
  char* spaced[] = {prog, secret, sk, typo, four};
  EXPECT_EXIT(tools::ParseFlags(5, spaced, {"secret", "workers"}, usage),
              ::testing::ExitedWithCode(2),
              "unknown flag --wrokers\nusage: tool --secret");
  char* joined[] = {prog, typo_eq, secret, sk};
  EXPECT_EXIT(tools::ParseFlagList(4, joined, {"secret", "workers"}, usage),
              ::testing::ExitedWithCode(2), "unknown flag --wrokers\n");
}

// The table-spec grammar of sknn_c1_server (tools/table_spec.h): --table
// flags and the rebuild specs kReloadTable parses back.

TEST(TableSpecTest, EveryFormattedSpecParsesBackEqual) {
  // Resolved specs as the server records them (a key path, a C2 address,
  // a port >= 1), with every optional key on or off: workers (with db "-"
  // or a file), clusters, and the QoS knobs at values whose six-digit
  // text would not be exact.
  std::mt19937_64 rng(0x5bec);
  auto real = [&rng] {
    return std::ldexp(static_cast<double>(rng() >> 11), -53) *
           std::ldexp(1.0, static_cast<int>(rng() % 40) - 20);
  };
  std::vector<tools::TableSpec> specs;
  for (int i = 0; i < 200; ++i) {
    tools::TableSpec spec;
    spec.name = "t" + std::to_string(i);
    spec.pk_path = "/keys/pk" + std::to_string(rng() % 9) + ".txt";
    spec.c2_host = "10.0.0." + std::to_string(rng() % 256);
    spec.c2_port = static_cast<uint16_t>(1 + rng() % 65535);
    if (rng() % 2) {
      const std::size_t workers = 1 + rng() % 3;
      for (std::size_t w = 0; w < workers; ++w) {
        spec.worker_addrs.push_back("h" + std::to_string(w) + ":" +
                                    std::to_string(1 + rng() % 65535));
      }
    }
    if (spec.worker_addrs.empty() || rng() % 2) {
      spec.db_path = "/data/db" + std::to_string(i) + ".bin";
    }
    if (rng() % 2) spec.clusters_path = "/data/clusters.bin";
    if (rng() % 2) spec.weight = static_cast<uint32_t>(1 + rng() % 0xFFFFFFFFu);
    if (rng() % 2) spec.rate = real();
    if (rng() % 2) spec.burst = real();
    if (rng() % 2) spec.cache_bytes = rng() % 3 == 0 ? 0 : rng();
    specs.push_back(std::move(spec));
  }
  tools::TableSpec tiny;
  tiny.name = "tiny";
  tiny.worker_addrs = {"127.0.0.1:9200", "127.0.0.1:9201"};
  tiny.pk_path = "pk.txt";
  tiny.c2_host = "127.0.0.1";
  tiny.c2_port = 9000;
  tiny.rate = 1e-7;
  tiny.burst = 1.0 / 3;
  specs.push_back(tiny);
  for (const tools::TableSpec& spec : specs) {
    const std::string text = tools::FormatTableSpec(spec);
    SCOPED_TRACE(text);
    auto parsed = tools::TryParseTableSpec(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_TRUE(*parsed == spec);
    EXPECT_EQ(tools::FormatTableSpec(*parsed), text);
  }
}

TEST(TableSpecTest, ShardLayoutKeysAreRefused) {
  // A table is sharded by its workers (workers=): shard-layout keys are
  // unknown keys, refused rather than silently ignored.
  for (const char* item : {"shards=2", "scheme=roundrobin", "manifest=m.bin"}) {
    auto parsed = tools::TryParseTableSpec(std::string("t=db.bin,") + item);
    ASSERT_FALSE(parsed.ok()) << item;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("unknown key"),
              std::string::npos)
        << parsed.status();
  }
}

TEST(TableSpecTest, MutantsParseOrFailInvalidArgument) {
  // Whatever an admin's reload frame carries, the parser returns a spec or
  // InvalidArgument and never throws; a spec it returns names its table
  // and has records to serve (a file or workers).
  const std::string valid =
      "users=/d/users.bin,clusters=/d/c.bin,public=/k/pk.txt,"
      "c2-host=127.0.0.1,c2-port=9000,weight=3,rate=2.5,burst=10,cache=0,"
      "workers=h:1|h:2";
  ASSERT_TRUE(tools::TryParseTableSpec(valid).ok());
  const char kInserts[] = ",=|-.:09az \t\r\n\0";
  const std::string inserts(kInserts, sizeof(kInserts) - 1);
  std::mt19937_64 rng(0x7ab1e);
  for (int i = 0; i < 300; ++i) {
    std::string text = valid;
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = rng() % text.size();
      switch (rng() % 4) {
        case 0:
          text[at] = static_cast<char>(rng() % 256);
          break;
        case 1:
          text.erase(at, 1);
          break;
        case 2:
          text.resize(at);
          break;
        default:
          text.insert(at, 1, inserts[rng() % inserts.size()]);
          break;
      }
    }
    SCOPED_TRACE("mutant " + std::to_string(i));
    Result<tools::TableSpec> parsed = Status::Internal("unset");
    EXPECT_NO_THROW(parsed = tools::TryParseTableSpec(text));
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << parsed.status();
      continue;
    }
    EXPECT_FALSE(parsed->name.empty());
    EXPECT_TRUE(!parsed->db_path.empty() || !parsed->worker_addrs.empty());
    EXPECT_GE(parsed->weight, 1u);
  }
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(sw.ElapsedMillis(), 15);
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
  sw.Reset();
  EXPECT_LT(sw.ElapsedMillis(), 15);
}

}  // namespace
}  // namespace sknn
