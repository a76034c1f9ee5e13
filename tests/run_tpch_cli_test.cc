// Runs the run_tpch binary on user-controlled input: --help prints the flag
// reference and exits 0, every malformed numeric flag value exits 2 naming
// its flag, and no input ends the process on a signal.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>

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
  for (const char* arg : {"--bogus", "--model=warp", "--kernel-variant=simd",
                          "--priority=urgent", "--serve --chunk=auto"}) {
    std::string output;
    const int status = RunCli(arg, &output);
    ASSERT_TRUE(WIFEXITED(status)) << arg << " ended on a signal: " << output;
    EXPECT_EQ(WEXITSTATUS(status), 2) << arg << ": " << output;
  }
}

}  // namespace
