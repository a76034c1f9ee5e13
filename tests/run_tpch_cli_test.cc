// Runs the run_tpch binary: --help prints the flag reference and exits 0,
// every malformed or contradictory flag exits 2 naming its flag before any
// data is generated, no input ends the process on a signal, and traced
// single-query runs execute exactly the plan an untraced run does.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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
  // {arguments, the flag the message must name (null: any message)}.
  const std::pair<const char*, const char*> kBad[] = {
      {"--bogus", nullptr},
      {"--model=warp", nullptr},
      {"--kernel-variant=simd", nullptr},
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

/// Runs run_tpch expecting exit 0; returns its output.
std::string RunOk(const std::string& args) {
  std::string output;
  const int status = RunCli(args, &output);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << args << ": " << output;
  return output;
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
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream json;
  json << in.rdbuf();
  const adamant::obs::TraceCheckResult check =
      adamant::obs::ValidateChromeTrace(json.str());
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
      "--query=6 --driver=openmp_cpu --kernel-variant=parallel --fusion=off "
      "--verify --trace=" + trace);
  EXPECT_NE(output.find("\"variant\":\"parallel\""), std::string::npos)
      << output;
  EXPECT_NE(output.find("verification: MATCH"), std::string::npos) << output;
  CheckTrace(trace, {{"tile:"}, {"kernel"}}, {"fused:"});
  // Q3 and Q4 too: their parallel hash kernels run tiles on the worker
  // pool (the TSan build runs these for races).
  for (const char* query : {"3", "4"}) {
    const std::string q_trace = TracePath(std::string("parallel_q") + query);
    const std::string q_output =
        RunOk(std::string("--query=") + query +
              " --driver=openmp_cpu --kernel-variant=parallel --verify "
              "--trace=" + q_trace);
    EXPECT_NE(q_output.find("verification: MATCH"), std::string::npos)
        << q_output;
    CheckTrace(q_trace, {{"tile:"}});
  }
}

TEST(RunTpchCli, TracedMultiDevice) {
  // Unfused, so every primitive launches as its own kernel span.
  const std::string trace = TracePath("multidevice");
  const std::string output =
      RunOk("--query=6 --devices=2 --fusion=off --verify --trace=" + trace);
  EXPECT_NE(output.find("\"devices\":2"), std::string::npos) << output;
  EXPECT_NE(output.find("verification: MATCH"), std::string::npos) << output;
  CheckTrace(trace, {{"pipeline"}, {"chunk"}, {"kernel"}, {"h2d"}});
}

}  // namespace
