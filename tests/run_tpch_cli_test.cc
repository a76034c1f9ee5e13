// Runs the run_tpch binary: --help prints the flag reference and exits 0,
// every malformed, contradictory or out-of-bounds flag exits 2 naming its
// flag before any data is generated, no input ends the process on a
// signal, traced single-query runs execute exactly the plan an untraced
// run does, and the CLI, service, fault and deadline smokes and soaks each
// check their results, exit codes, traces and metrics.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "obs/trace_check.h"

namespace {

/// Runs run_tpch with `args`; returns the wait status, stdout+stderr in
/// `output`.
int RunCli(const std::string& args, std::string* output) {
  const std::string command =
      std::string(ADAMANT_RUN_TPCH) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buffer[4096];
  size_t n;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output->append(buffer, n);
  }
  return pclose(pipe);
}

TEST(RunTpchCli, HelpPrintsUsageAndExitsZero) {
  std::string output;
  const int status = RunCli("--help", &output);
  ASSERT_TRUE(WIFEXITED(status)) << output;
  EXPECT_EQ(WEXITSTATUS(status), 0) << output;
  EXPECT_EQ(output.rfind("usage: run_tpch", 0), 0u) << output;
  for (const char* flag : {"--sf=F", "--chunk=N|auto", "--kernel-threads=N",
                           "--serve", "--sequential", "Exit codes"}) {
    EXPECT_NE(output.find(flag), std::string::npos) << flag;
  }
}

TEST(RunTpchCli, MalformedNumbersExitTwoNamingTheFlag) {
  const char* kMalformed[] = {
      "--sf=abc",           "--sf=0",
      "--nominal-sf=x",     "--setup=one",
      "--chunk=xyz",        "--chunk=0",
      "--kernel-threads=-2", "--clients=-1",
      "--queries=ten",      "--seed=1.5",
      "--devices=2x",       "--devices=0,a1",
      "--split=1,x",        "--fault-rate=p",
      "--fault-seed=-3",    "--sticky-device=",
      "--deadline-ms=inf",  "--watchdog-factor=nan",
      "--stall-ms=1e999",
  };
  for (const char* arg : kMalformed) {
    std::string output;
    const int status = RunCli(arg, &output);
    ASSERT_TRUE(WIFEXITED(status)) << arg << " ended on a signal: " << output;
    EXPECT_EQ(WEXITSTATUS(status), 2) << arg << ": " << output;
    const std::string flag(arg, std::string(arg).find('='));
    EXPECT_NE(output.find(flag + ":"), std::string::npos)
        << arg << ": " << output;
  }
}

TEST(RunTpchCli, UnknownFlagsAndBadKnobsExitTwo) {
  // 65 driver names, one past kMaxDevices (driver classes may repeat).
  std::string named_devices = "--devices=cuda_gpu";
  for (int d = 1; d < 65; ++d) named_devices += ",cuda_gpu";
  // {arguments, the flag the message must name (null: any message)}.
  const std::pair<std::string, const char*> kBad[] = {
      {"--bogus", nullptr},
      {"--model=warp", nullptr},
      {"--kernel-variant=simd", nullptr},  // a removed flag is unknown
      {"--priority=urgent", nullptr},
      {"--serve --chunk=auto", "--chunk"},
      {"--query=2", "--query"},
      {"--driver=tpu", "--driver"},
      {"--devices=cuda_gpu,tpu", "--devices"},
      {"--devices=0,0", "--devices"},
      {"--devices=0,1 --split=0.5", "--split"},
      {"--devices=0,1 --split=0,1", "--split"},
      {"--split=0.5,0.5", "--split"},
      {"--setup=3", "--setup"},
      {"--serve --explain", "--explain"},
      {"--sql=", "--sql"},
      // Counts are bounded: one past kMaxClients / kMaxDevices (64), so a
      // missing bound starts a handful of threads, not thousands.
      {"--serve --clients=65", "--clients"},
      {"--devices=65", "--devices"},
      {"--serve --devices=65", "--devices"},
      {"--devices=0,64", "--devices"},
      {named_devices, "--devices"},
      {"--devices=0", "--devices"},
      {"--devices=,,", "--devices"},
      {"--fault-rate=1.5", "--fault-rate"},
      // ValidateExecutionOptions runs at parse time too.
      {"--kernel-threads=1025", "--kernel-threads"},
      {"--devices=0,1 --split=1e10,1", "--split"},
  };
  for (const auto& [args, flag] : kBad) {
    std::string output;
    const int status = RunCli(args, &output);
    ASSERT_TRUE(WIFEXITED(status)) << args << " ended on a signal: " << output;
    EXPECT_EQ(WEXITSTATUS(status), 2) << args << ": " << output;
    // Rejected at parse time, before any data is generated.
    EXPECT_EQ(output.find("generated TPC-H"), std::string::npos) << args;
    if (flag != nullptr) {
      EXPECT_NE(output.find(flag), std::string::npos) << args << ": " << output;
    }
  }
}

// --- Traced runs: the recorder observes the plan, never changes it --------

/// Runs run_tpch expecting exit `code`; returns its output.
std::string RunExpect(const std::string& args, int code) {
  std::string output;
  const int status = RunCli(args, &output);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == code)
      << args << ": " << output;
  return output;
}

std::string RunOk(const std::string& args) { return RunExpect(args, 0); }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Whether some line of `text` starts with `prefix`.
bool HasLine(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0 ||
         text.find("\n" + prefix) != std::string::npos;
}

/// The simulated-clock lines of a report: "elapsed ..." and the
/// "fused_groups" count.
std::vector<std::string> PlanLines(const std::string& output) {
  std::vector<std::string> lines;
  std::istringstream in(output);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("    elapsed ", 0) == 0) lines.push_back(line);
    const size_t fused = line.find("\"fused_groups\":");
    if (fused != std::string::npos) {
      lines.push_back(line.substr(fused, line.find(',', fused) - fused));
    }
  }
  return lines;
}

/// Reads and validates a trace; `require` are event-name prefixes of which
/// each must occur, `forbid` prefixes that must not.
void CheckTrace(const std::string& path,
                const std::vector<std::vector<std::string>>& require,
                const std::vector<std::string>& forbid = {}) {
  const adamant::obs::TraceCheckResult check =
      adamant::obs::ValidateChromeTrace(ReadFile(path));
  EXPECT_TRUE(check.ok) << path << ": " << check.Summary();
  auto has = [&](const std::string& prefix) {
    for (const std::string& name : check.event_names) {
      if (name.rfind(prefix, 0) == 0) return true;
    }
    return false;
  };
  // Each requirement holds when any of its alternatives occurs.
  for (const std::vector<std::string>& alternatives : require) {
    bool found = false;
    for (const std::string& prefix : alternatives) found = found || has(prefix);
    EXPECT_TRUE(found) << path << " lacks " << alternatives.front();
  }
  for (const std::string& prefix : forbid) {
    EXPECT_FALSE(has(prefix)) << path << " has " << prefix;
  }
}

std::string TracePath(const std::string& name) {
  return ::testing::TempDir() + "run_tpch_" + name + ".json";
}

TEST(RunTpchCli, TracingDoesNotChangeThePlan) {
  // --nominal-sf gives Q6 two chunks, so --devices=0,1 really splits.
  const char* kQueries[] = {"--sql=q6", "--sql=q4", "--query=3",
                            "--query=6 --devices=0,1"};
  for (const char* query : kQueries) {
    const std::string args =
        std::string(query) + " --sf=0.01 --nominal-sf=10 --verify";
    const std::string trace = TracePath("same_plan");
    const std::vector<std::string> plain = PlanLines(RunOk(args));
    const std::vector<std::string> traced =
        PlanLines(RunOk(args + " --trace=" + trace));
    ASSERT_EQ(plain.size(), 2u) << query;
    EXPECT_EQ(plain, traced) << query;
    // A fused composite's launch is its kernel span.
    CheckTrace(trace, {{"pipeline"}, {"chunk"}, {"kernel:", "fused:"}});
  }
}

// The traced single-query smokes: each run verifies its result and lints
// its trace for the spans its feature emits.

TEST(RunTpchCli, TracedHeterogeneousSplitSteals) {
  const std::string trace = TracePath("hetero");
  const std::string output = RunOk(
      "--query=6 --sf=0.01 --nominal-sf=1 --chunk=65536 "
      "--model=device-parallel --devices=cuda_gpu,openmp_cpu --split=0.9,0.1 "
      "--verify --trace=" + trace);
  EXPECT_NE(output.find("verification: MATCH"), std::string::npos) << output;
  EXPECT_NE(output.find("\"rebalance\":true"), std::string::npos) << output;
  CheckTrace(trace, {{"steal:"}, {"chunk"}});
}

TEST(RunTpchCli, TracedFusion) {
  const std::string trace = TracePath("fusion");
  const std::string output =
      RunOk("--query=6 --fusion=on --verify --trace=" + trace);
  EXPECT_NE(output.find("\"fused_groups\":1"), std::string::npos) << output;
  EXPECT_NE(output.find("verification: MATCH"), std::string::npos) << output;
  CheckTrace(trace, {{"fused:"}, {"chunk"}});
}

TEST(RunTpchCli, TracedParallelKernels) {
  const std::string trace = TracePath("parallel");
  const std::string output = RunOk(
      "--query=6 --driver=openmp_cpu --kernel-threads=4 --fusion=off "
      "--verify --trace=" + trace);
  EXPECT_NE(output.find("\"threads\":4"), std::string::npos) << output;
  EXPECT_NE(output.find("verification: MATCH"), std::string::npos) << output;
  CheckTrace(trace, {{"tile:"}, {"kernel"}}, {"fused:"});
  // Q3 and Q4 too: their hash kernels run tiles on the worker pool (the
  // TSan build runs these for races).
  for (const char* query : {"3", "4"}) {
    const std::string q_trace = TracePath(std::string("parallel_q") + query);
    const std::string q_output =
        RunOk(std::string("--query=") + query +
              " --driver=openmp_cpu --kernel-threads=4 --verify "
              "--trace=" + q_trace);
    EXPECT_NE(q_output.find("verification: MATCH"), std::string::npos)
        << q_output;
    CheckTrace(q_trace, {{"tile:"}});
  }
}

TEST(RunTpchCli, TracedMultiDevice) {
  // Unfused, so every primitive launches as its own kernel span; two chunks
  // (--nominal-sf), so both devices run a partition.
  const std::string trace = TracePath("multidevice");
  const std::string output = RunOk(
      "--query=6 --devices=2 --nominal-sf=10 --fusion=off --verify --trace=" +
      trace);
  EXPECT_NE(output.find("\"devices\":2"), std::string::npos) << output;
  EXPECT_NE(output.find("verification: MATCH"), std::string::npos) << output;
  CheckTrace(trace, {{"pipeline"}, {"chunk"}, {"kernel"}, {"h2d"}});
}

TEST(RunTpchCli, TraceCarriesEverySimulatedDeviceAndQuery) {
  // Four lineitem chunks, so both partition devices run some of each query.
  const std::string trace = TracePath("simulated");
  const std::string output = RunOk(
      "--query=all --devices=0,1 --sf=0.01 --chunk=16384 --trace=" + trace);
  CheckTrace(trace, {{"run:"}, {"h2d"}});
  const std::string json = ReadFile(trace);
  EXPECT_NE(json.find("\"simulated clock (us)\""), std::string::npos);
  // One simulated window per query, none skipped.
  size_t queries = 0;
  for (size_t at = output.find("elapsed "); at != std::string::npos;
       at = output.find("elapsed ", at + 1)) {
    ++queries;
  }
  EXPECT_EQ(queries, 8u) << output;
  for (size_t run = 0; run < queries; ++run) {
    EXPECT_NE(json.find("\"name\":\"run:" + std::to_string(run) + "\""),
              std::string::npos)
        << run;
  }
  // Every engine of both devices booked work on the simulated clock.
  for (int device : {0, 1}) {
    for (int engine : {0, 2}) {  // h2d, compute
      const std::string event =
          "\"pid\":1,\"tid\":" +
          std::to_string(adamant::obs::SimEngineTrack(device) + engine) +
          ",\"ts\":";
      EXPECT_NE(json.find(event), std::string::npos) << device << "/" << engine;
    }
  }
  EXPECT_NE(json.find("cuda_gpu.1 compute (simulated)"), std::string::npos);
}

// --- The CLI and service smokes and soaks ---------------------------------

TEST(RunTpchCli, MultiDeviceSmoke) {
  // --nominal-sf gives Q6 two chunks, so both devices run a partition.
  const std::string output = RunOk("--query=6 --devices=2 --nominal-sf=10");
  EXPECT_NE(output.find("\"model\":\"device-parallel\""), std::string::npos)
      << output;
  EXPECT_NE(output.find("\"devices\":2"), std::string::npos) << output;
}

TEST(RunTpchCli, DeviceParallelLineCountsTheDevicesThatRan) {
  // Q6 at SF 0.01 is one chunk, so the run collapses the two-device set.
  const std::string output =
      RunOk("--query=6 --sf=0.01 --verify --devices=0,1 --no-rebalance");
  EXPECT_NE(output.find("\"devices\":1,\"chunks\":{\"0\":1}"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("verification: MATCH"), std::string::npos) << output;
}

TEST(RunTpchCli, SqlSmoke) {
  EXPECT_NE(RunOk("--list-queries").find("shipmode_rollup"), std::string::npos);
  EXPECT_NE(RunOk("--sql=q6 --verify").find("verification: MATCH"),
            std::string::npos);
  const std::string explain = RunOk("--sql=q3 --explain");
  EXPECT_NE(explain.find("pushed-down predicates"), std::string::npos)
      << explain;
  EXPECT_NE(explain.find("join order: lineitem joins orders joins customer"),
            std::string::npos)
      << explain;
}

TEST(RunTpchCli, ServeSmoke) {
  const std::string output = RunOk("--serve --clients=4 --queries=50 --seed=7");
  EXPECT_NE(output.find("50/50 results match"), std::string::npos) << output;
}

TEST(RunTpchCli, ServedSqlSmoke) {
  const std::string output =
      RunOk("--serve --serve-sql --clients=4 --queries=24 --seed=7");
  EXPECT_NE(output.find("results match"), std::string::npos) << output;
}

TEST(RunTpchCli, FaultInjectionSoak) {
  const std::string output = RunOk(
      "--serve --clients=4 --queries=200 --seed=7 --fault-rate=0.007 "
      "--fault-seed=13");
  EXPECT_NE(output.find("\"failed\":0"), std::string::npos) << output;
  EXPECT_NE(output.find("200/200 results match"), std::string::npos) << output;
}

TEST(RunTpchCli, FaultCountersAreDeterministic) {
  const std::string args =
      "--serve --clients=1 --devices=1 --queries=40 --seed=7 "
      "--fault-rate=0.02 --fault-seed=21 --sequential";
  auto counters = [](const std::string& output) {
    static const std::regex kCounter(
        "\"(completed|failed|retries|requeues|quarantines|fault_unwinds)"
        "\":[0-9]+");
    std::vector<std::string> found;
    for (auto it = std::sregex_iterator(output.begin(), output.end(),
                                        kCounter);
         it != std::sregex_iterator(); ++it) {
      found.push_back(it->str());
    }
    return found;
  };
  const std::vector<std::string> first = counters(RunOk(args));
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, counters(RunOk(args)));
}

TEST(RunTpchCli, TracedServeSoakAndPrometheusScrape) {
  const std::string trace = TracePath("serve");
  const std::string metrics = ::testing::TempDir() + "run_tpch_metrics.txt";
  RunOk("--serve --clients=4 --queries=100 --seed=7 --trace=" + trace +
        " --metrics=" + metrics);
  CheckTrace(trace, {{"admit"}, {"place"}, {"query"}});
  const std::string text = ReadFile(metrics);
  EXPECT_TRUE(HasLine(text, "adamant_service_completed_total")) << text;
  EXPECT_TRUE(HasLine(text, "adamant_bytes_h2d_total")) << text;
}

TEST(RunTpchCli, ExplainAnalyzeSmokeAndQErrorScrape) {
  const std::string metrics = ::testing::TempDir() + "run_tpch_ea_metrics.txt";
  for (const char* query : {"1", "3", "4", "6"}) {
    const std::string output =
        RunOk(std::string("--query=") + query +
              " --explain-analyze --verify --metrics=" + metrics);
    EXPECT_NE(output.find("explain analyze"), std::string::npos) << query;
    EXPECT_NE(output.find("qerror:"), std::string::npos) << query;
    EXPECT_NE(output.find("verification: MATCH"), std::string::npos) << query;
  }
  const std::string text = ReadFile(metrics);
  EXPECT_TRUE(HasLine(text, "adamant_plan_qerror_selectivity")) << text;
  EXPECT_TRUE(HasLine(text, "adamant_plan_qerror_cost")) << text;
}

TEST(RunTpchCli, ShedUnderOverloadExitsThree) {
  const std::string output =
      RunExpect("--serve --clients=2 --queries=20 --seed=7 --deadline-ms=1", 3);
  EXPECT_TRUE(HasLine(output, "serve_errors: ")) << output;
  EXPECT_NE(output.find("\"shed\":20"), std::string::npos) << output;
}

TEST(RunTpchCli, TracedDeadlineCancellationAndShed) {
  const std::string trace = TracePath("deadline");
  const std::string output = RunExpect(
      "--serve --clients=1 --devices=1 --queries=10 --seed=7 "
      "--deadline-ms=30 --stall-ms=100 --sticky-device=0 --trace=" + trace,
      3);
  EXPECT_TRUE(HasLine(output, "serve_errors: ")) << output;
  CheckTrace(trace, {{"cancel"}, {"shed"}});
}

}  // namespace
