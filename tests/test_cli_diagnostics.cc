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
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "gen/random_trace.hh"
#include "trace/snapshot.hh"
#include "trace/trace_io.hh"

namespace tc {
namespace {

constexpr const char *kWorkDir = "/tmp/tc_cli_diag";

/** Exit code of @p command, keeping what it wrote to stderr in
 * @p err (-1 when it did not exit normally). */
int
runCliStderr(const std::string &command, std::string &err)
{
    const std::string path = std::string(kWorkDir) + "/stderr.txt";
    const int status = std::system(
        (command + " > /dev/null 2> " + path).c_str());
    std::ifstream in(path);
    err.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
    if (status == -1 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

int
runCli(const std::string &command)
{
    std::string ignored;
    return runCliStderr(command, ignored);
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

TEST_F(CliDiagnostics, RetiredFlagsAreUnknown)
{
    // The parallel/async shapes and the mmap byte source did not
    // pay end to end and are gone; their flags (named here without
    // their leading dashes) must fail as typos do, not be ignored.
    const std::string input =
        " --trace=" + goodPath() + " --stream --";
    for (const char *flag : {"readers=2", "merge-workers=2",
                             "shard-analysis=2", "io=stream"}) {
        EXPECT_EQ(runCli("./race_detector" + input + flag), 1)
            << flag;
    }
    const std::string split = "./trace_tool split " + goodPath() +
                              " " + std::string(kWorkDir) +
                              "/retired_split --";
    for (const char *flag :
         {"writers=2", "async-append", "merge-workers=2"})
        EXPECT_EQ(runCli(split + flag), 1) << flag;
    const std::string stats =
        "./trace_tool stats " + goodPath() + " --";
    EXPECT_EQ(runCli(stats + "io=mmap"), 1);
}

TEST_F(CliDiagnostics, FindingsExitTwo)
{
    // The generated workload races; detection is a finding, not an
    // error.
    EXPECT_EQ(runCli("./race_detector --trace=" + goodPath() +
                     " --po=hb --clock=tc"),
              2);
}

TEST_F(CliDiagnostics, StreamedDisciplineViolationsExitTwoLikeMaterialized)
{
    // The materialized path rejects these in validate(); every
    // streamed path must stop at the same event with the same line
    // rather than abort.
    const std::string v1 = "threads 2 locks 1 vars 1\n";
    const std::string v2 =
        "# treeclock trace v2\nthreads 3 locks 1 vars 1\n";
    const struct
    {
        const char *name;
        std::string text;
        int event;
        const char *message;
    } cases[] = {
        {"double_acquire", v1 + "0 acq 0\n1 acq 0\n", 1,
         "lock 0 acquired while held by thread 0"},
        {"unheld_release", v1 + "0 rel 0\n", 0,
         "lock 0 released by thread 0 but held by -1"},
        {"fork_started", v1 + "1 w 0\n0 fork 1\n", 1,
         "fork target 1 already has events"},
        {"fork_self", v1 + "0 fork 0\n", 0, "thread forks itself"},
        {"fork_twice", v1 + "0 fork 1\n0 fork 1\n", 1,
         "thread 1 forked twice"},
        {"join_self", v1 + "0 join 0\n", 0, "thread joins itself"},
        {"join_twice",
         v1 + "0 fork 1\n1 w 0\n0 join 1\n0 join 1\n", 3,
         "thread 1 joined twice"},
        {"acts_after_join",
         v1 + "0 fork 1\n1 w 0\n0 join 1\n1 w 0\n", 3,
         "thread 1 acts after being joined"},
        {"fork_managed", v2 + "0 tcreate 1\n0 fork 1\n", 1,
         "fork target 1 is lifecycle-managed"},
        {"tcreate_started", v2 + "0 w 0\n1 w 0\n0 tcreate 1\n", 2,
         "tcreate target 1 already has events"},
        {"tcreate_self", v2 + "0 tcreate 0\n", 0,
         "thread tcreates itself"},
        {"tcreate_twice", v2 + "0 tcreate 1\n2 tcreate 1\n", 1,
         "thread 1 created twice"},
        {"tcreate_forked", v2 + "0 fork 1\n0 tcreate 1\n", 1,
         "thread 1 created twice"},
        {"tcreate_joined", v2 + "0 join 1\n0 tcreate 1\n", 1,
         "thread 1 created twice"},
        {"tjoin_uncreated", v2 + "0 tjoin 1\n", 0,
         "tjoin of thread 1 without tcreate"},
        {"tjoin_self", v2 + "0 tjoin 0\n", 0, "thread tjoins itself"},
        {"tjoin_twice", v2 + "0 tcreate 1\n0 tjoin 1\n2 tjoin 1\n", 2,
         "thread 1 joined twice"},
        {"tretire_unjoined", v2 + "0 tcreate 1\n0 tretire 1\n", 1,
         "tretire of thread 1 without tjoin"},
        {"tretire_twice",
         v2 + "0 tcreate 1\n0 tjoin 1\n0 tretire 1\n2 tretire 1\n", 3,
         "thread 1 retired twice"},
        {"acts_after_tjoin",
         v2 + "0 tcreate 1\n1 w 0\n0 tjoin 1\n1 w 0\n", 3,
         "thread 1 acts after being joined"},
        {"tcreate_after_tjoin",
         v2 + "0 tcreate 1\n0 tjoin 1\n1 tcreate 2\n", 2,
         "thread 1 acts after being joined"},
    };
    for (const auto &c : cases) {
        const std::string path =
            std::string(kWorkDir) + "/" + c.name + ".tct";
        std::ofstream(path) << c.text;
        const std::string line =
            "error: malformed trace at event " +
            std::to_string(c.event) + ": " + c.message + "\n";
        for (const char *mode :
             {"", " --po=hb,shb,maz --clock=tc,vc --parallel",
              " --stream", " --stream --prefetch",
              " --stream --parallel=2",
              " --stream --prefetch --po=hb,shb,maz --clock=tc,vc "
              "--parallel"}) {
            std::string err;
            EXPECT_EQ(runCliStderr(
                          "./race_detector --trace=" + path + mode,
                          err),
                      2)
                << c.name << mode;
            EXPECT_EQ(err, line) << c.name << mode;
        }
    }
}

TEST_F(CliDiagnostics, StreamedForkJoinViolationsSurviveResume)
{
    // A checkpoint taken right before the violating event carries
    // the plain fork/join state, so the resumed run stops there
    // with the line the uninterrupted run printed.
    const std::string v1 = "threads 2 locks 1 vars 1\n";
    const struct
    {
        const char *name;
        std::string text;
        int event;
        const char *message;
    } cases[] = {
        {"resume_fork_twice", v1 + "0 fork 1\n0 fork 1\n", 1,
         "thread 1 forked twice"},
        {"resume_join_twice",
         v1 + "0 fork 1\n1 w 0\n0 join 1\n0 join 1\n", 3,
         "thread 1 joined twice"},
        {"resume_acts_after_join",
         v1 + "0 fork 1\n1 w 0\n0 join 1\n1 w 0\n", 3,
         "thread 1 acts after being joined"},
    };
    for (const auto &c : cases) {
        const std::string dir = std::string(kWorkDir) + "/" + c.name;
        const std::string path = dir + ".tct";
        std::ofstream(path) << c.text;
        mkdir(dir.c_str(), 0755);
        const std::string line =
            "error: malformed trace at event " +
            std::to_string(c.event) + ": " + c.message + "\n";
        const std::string run = "./race_detector --trace=" + path +
                                " --stream --snapshot-dir=" + dir;
        std::string err;
        EXPECT_EQ(runCliStderr(run + " --checkpoint-every=" +
                                   std::to_string(c.event),
                               err),
                  2)
            << c.name;
        EXPECT_EQ(err, line) << c.name;
        const std::string snapshot =
            dir + "/" +
            snapshotFileName(CheckpointOptions().base, c.event);
        ASSERT_EQ(access(snapshot.c_str(), F_OK), 0) << snapshot;
        EXPECT_EQ(runCliStderr(run + " --resume-from=" + snapshot,
                               err),
                  2)
            << c.name;
        EXPECT_EQ(err, line) << c.name;
    }
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

TEST_F(CliDiagnostics, InflatedEventCountsExitThreeLikeStreamed)
{
    // Headers declaring 2^50 events over one record. The
    // materialized path must fail on the missing records, as
    // --stream does, not abort reserving room for the declared
    // count (this suite also runs under a 4 GiB address limit).
    const std::uint64_t declared = std::uint64_t{1} << 50;
    auto put = [](std::string &out, const auto &value) {
        out.append(reinterpret_cast<const char *>(&value),
                   sizeof(value));
    };
    // threads 1, locks 0, vars 1; the one record is "0 w 0".
    const std::uint32_t ids[3] = {1, 0, 1};
    const std::int32_t tid = 0;
    const std::uint32_t target = 0;
    const auto op = static_cast<std::uint8_t>(OpType::Write);

    std::string tcb("TCTB1", 6);
    put(tcb, ids);
    put(tcb, declared);
    put(tcb, tid);
    put(tcb, target);
    put(tcb, op);
    ASSERT_EQ(tcb.size(), 35u);

    // Shard 0 of 1 with the same id space, shard and total counts.
    std::string tcs("TCSH1", 6);
    const std::uint32_t shape[2] = {0, 1};
    put(tcs, shape);
    put(tcs, ids);
    put(tcs, declared);
    put(tcs, declared);
    put(tcs, std::uint64_t{0}); // the record's global stamp
    put(tcs, tid);
    put(tcs, target);
    put(tcs, op);

    const std::string tcb_path =
        std::string(kWorkDir) + "/inflated.tcb";
    const std::string tcs_path =
        std::string(kWorkDir) + "/inflated.0.tcs";
    std::ofstream(tcb_path, std::ios::binary) << tcb;
    std::ofstream(tcs_path, std::ios::binary) << tcs;
    const struct
    {
        std::string path;
        std::string line;
    } cases[] = {
        {tcb_path, "error: truncated event stream at event 1\n"},
        {tcs_path,
         "error: " + tcs_path + ": truncated shard at event 1\n"},
    };
    for (const auto &c : cases) {
        for (const std::string &command :
             {"./race_detector --trace=" + c.path,
              "./race_detector --trace=" + c.path + " --stream",
              "./trace_tool validate " + c.path}) {
            std::string err;
            EXPECT_EQ(runCliStderr(command, err), 3) << command;
            EXPECT_EQ(err, c.line) << command;
        }
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

TEST_F(CliDiagnostics, InjectedSourceCrashExitsSeventySeven)
{
    EXPECT_EQ(runCli("TC_FAILPOINTS='source.next=crash@100' "
                     "./race_detector --trace=" +
                     goodPath() + " --stream"),
              77);
}

} // namespace
} // namespace tc
