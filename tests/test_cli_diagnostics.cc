/**
 * @file
 * Exit-code taxonomy parity between the CLIs
 * (support/diagnostics.hh): the same kind of failure must produce
 * the same exit code from race_detector and trace_tool — scripts
 * and the CI crash sweeps branch on these codes, so they are API.
 *
 *   0 ok · 1 usage · 2 finding · 3 corrupt input · 4 I/O · 77
 *   injected crash
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>

#include "gen/random_trace.hh"
#include "trace/trace_io.hh"

namespace tc {
namespace {

constexpr const char *kWorkDir = "/tmp/tc_cli_diag";

int
runCli(const std::string &command)
{
    const int status =
        std::system((command + " > /dev/null 2>&1").c_str());
    if (status == -1 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

class CliDiagnostics : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        mkdir(kWorkDir, 0755);
        RandomTraceParams params;
        params.threads = 4;
        params.locks = 2;
        params.vars = 8;
        params.events = 2000;
        params.seed = 9;
        ASSERT_TRUE(
            saveTrace(generateRandomTrace(params), goodPath()));

        // Corrupt variant: valid header, garbage in the body.
        {
            std::ifstream in(goodPath(), std::ios::binary);
            std::ofstream out(corruptPath(), std::ios::binary);
            out << in.rdbuf();
        }
        std::fstream f(corruptPath(), std::ios::in | std::ios::out |
                                          std::ios::binary);
        f.seekp(40);
        const char junk[4] = {-1, -1, -1, -1};
        f.write(junk, sizeof(junk));
        f.close();

        // Truncated variant: the header promises more events than
        // the file holds.
        {
            std::ifstream in(goodPath(), std::ios::binary);
            std::ofstream out(truncatedPath(), std::ios::binary);
            char buf[256];
            in.read(buf, sizeof(buf));
            out.write(buf, in.gcount());
        }
    }

    static std::string
    goodPath()
    {
        return std::string(kWorkDir) + "/good.tcb";
    }
    static std::string
    corruptPath()
    {
        return std::string(kWorkDir) + "/corrupt.tcb";
    }
    static std::string
    truncatedPath()
    {
        return std::string(kWorkDir) + "/truncated.tcb";
    }
};

TEST_F(CliDiagnostics, UsageErrorsExitOne)
{
    EXPECT_EQ(runCli("./race_detector --no-such-flag"), 1);
    EXPECT_EQ(runCli("./trace_tool frobnicate"), 1);
    // checkpointing without a directory is a usage error, not a
    // late runtime failure.
    EXPECT_EQ(runCli("./race_detector --trace=" + goodPath() +
                     " --stream --checkpoint-every=100"),
              1);
    // Both CLIs validate the failpoint spec before doing any work.
    EXPECT_EQ(runCli("TC_FAILPOINTS='bad spec' ./race_detector "
                     "--trace=" +
                     goodPath()),
              1);
    EXPECT_EQ(runCli("TC_FAILPOINTS='bad spec' ./trace_tool "
                     "stats " +
                     goodPath()),
              1);
}

TEST_F(CliDiagnostics, RetiredParallelFlagsAreUnknown)
{
    // The parallel/async shapes that did not pay end to end are
    // gone; their flags must fail as typos do, not be ignored.
    const std::string input = " --trace=" + goodPath() + " --stream";
    for (const char *flag : {"--readers=2", "--merge-workers=2",
                             "--shard-analysis=2"}) {
        EXPECT_EQ(runCli("./race_detector" + input + " " + flag), 1)
            << flag;
    }
    const std::string split = "./trace_tool split " + goodPath() +
                              " " + std::string(kWorkDir) +
                              "/retired_split ";
    for (const char *flag :
         {"--writers=2", "--async-append", "--merge-workers=2"})
        EXPECT_EQ(runCli(split + flag), 1) << flag;
}

TEST_F(CliDiagnostics, FindingsExitTwo)
{
    // The generated workload races; detection is a finding, not an
    // error.
    EXPECT_EQ(runCli("./race_detector --trace=" + goodPath() +
                     " --po=hb --clock=tc"),
              2);
}

TEST_F(CliDiagnostics, MissingInputsExitFourFromBothTools)
{
    const std::string missing =
        std::string(kWorkDir) + "/no_such_file.tcb";
    EXPECT_EQ(runCli("./race_detector --trace=" + missing), 4);
    EXPECT_EQ(runCli("./race_detector --trace=" + missing +
                     " --stream"),
              4);
    EXPECT_EQ(runCli("./trace_tool stats " + missing), 4);
    EXPECT_EQ(runCli("./trace_tool validate " + missing), 4);
}

TEST_F(CliDiagnostics, CorruptInputsExitThreeFromBothTools)
{
    for (const std::string &path :
         {corruptPath(), truncatedPath()}) {
        EXPECT_EQ(runCli("./race_detector --trace=" + path), 3)
            << path;
        EXPECT_EQ(
            runCli("./race_detector --trace=" + path + " --stream"),
            3)
            << path;
        EXPECT_EQ(runCli("./trace_tool stats " + path), 3) << path;
        EXPECT_EQ(runCli("./trace_tool validate " + path), 3)
            << path;
    }
}

TEST_F(CliDiagnostics, CleanRunsExitZero)
{
    EXPECT_EQ(runCli("./trace_tool stats " + goodPath()), 0);
    EXPECT_EQ(runCli("./trace_tool validate " + goodPath()), 0);
}

TEST_F(CliDiagnostics, InjectedIoErrorsExitFourFromBothTools)
{
    // The same injected fault surfaces as the same exit code
    // whichever CLI consumed the stream.
    EXPECT_EQ(runCli("TC_FAILPOINTS='source.next=eio@100' "
                     "./race_detector --trace=" +
                     goodPath() + " --stream"),
              4);
    EXPECT_EQ(runCli("TC_FAILPOINTS='shard.append=eio@100' "
                     "./trace_tool split " +
                     goodPath() + " " + std::string(kWorkDir) +
                     "/diag_split --shards=2"),
              4);
}

} // namespace
} // namespace tc
