/**
 * @file
 * Kill-at-random-failpoint sweeps, end to end through the real
 * CLIs: a child process is crashed (TC_FAILPOINTS=...=crash@h →
 * _Exit(77)) at every durability-relevant point of the snapshot
 * protocol and the shard capture path, and the next run must
 * either recover to the exact straight-through answer or fail
 * loudly with the corrupt-input exit code — never a wrong answer.
 *
 * ctest runs these binaries' tests with the build directory as the
 * working directory, so ./race_detector and ./trace_tool resolve
 * to the freshly built CLIs.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gen/random_trace.hh"
#include "support/rng.hh"
#include "test_helpers.hh"
#include "trace/fault_injection.hh"
#include "trace/trace_io.hh"

namespace tc {
namespace {

constexpr const char *kWorkDir = "/tmp/tc_crash_recovery";

/** Run @p command through the shell; returns its exit code (-1 on
 * abnormal termination). */
int
runCli(const std::string &command)
{
    const int status = std::system(command.c_str());
    if (status == -1 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** The stable tail of race_detector's stdout: everything from the
 * first per-analysis report header on (the preamble above it has
 * run-specific lines — timings, resume notes). */
std::string
reportSection(const std::string &output)
{
    const std::size_t at = output.find("--- ");
    return at == std::string::npos ? output : output.substr(at);
}

void
removeDirContents(const std::string &dir)
{
    if (DIR *d = opendir(dir.c_str())) {
        while (const dirent *entry = readdir(d)) {
            const std::string name = entry->d_name;
            if (name != "." && name != "..")
                std::remove((dir + "/" + name).c_str());
        }
        closedir(d);
    }
}

class CrashRecovery : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        mkdir(kWorkDir, 0755);
        removeDirContents(kWorkDir);
        RandomTraceParams params;
        params.threads = 8;
        params.locks = 4;
        params.vars = 32;
        params.events = 60000;
        params.syncRatio = 0.2;
        params.readFraction = 0.6;
        params.forkJoin = true;
        params.seed = 0xc4a5;
        ASSERT_TRUE(saveTrace(generateRandomTrace(params),
                              tracePath()));

        // The answer every recovery must reproduce.
        const int code = runCli(detector() + " > " + straightOut() +
                                " 2>&1");
        ASSERT_TRUE(code == 0 || code == 2) << readFile(straightOut());
        straightExit_ = code;
        straightReports_ = reportSection(readFile(straightOut()));
        ASSERT_NE(straightReports_.find("--- "), std::string::npos);
    }

    static std::string
    tracePath()
    {
        return std::string(kWorkDir) + "/run.tcb";
    }
    static std::string
    straightOut()
    {
        return std::string(kWorkDir) + "/straight.txt";
    }
    static std::string
    snapDir()
    {
        return std::string(kWorkDir) + "/snaps";
    }

    /** The common detector invocation (streaming, full clock
     * matrix over HB and SHB). */
    static std::string
    detector()
    {
        return "./race_detector --trace=" + tracePath() +
               " --stream --po=hb,shb --clock=tc,vc";
    }

    static std::string
    checkpointed()
    {
        return detector() + " --checkpoint-every=10000" +
               " --snapshot-dir=" + snapDir();
    }

    /** Crash a checkpointed child at @p failpoints, then resume
     * and require the straight-through answer. */
    void
    crashThenRecover(const std::string &failpoints)
    {
        removeDirContents(snapDir());
        const std::string crash_out =
            std::string(kWorkDir) + "/crash.txt";
        const int crashed =
            runCli("TC_FAILPOINTS='" + failpoints + "' " +
                   checkpointed() + " > " + crash_out + " 2>&1");
        ASSERT_EQ(crashed, kFaultCrashExitCode)
            << failpoints << ": " << readFile(crash_out);

        const std::string resume_out =
            std::string(kWorkDir) + "/resume.txt";
        const int resumed =
            runCli(checkpointed() + " --resume > " + resume_out +
                   " 2>&1");
        const std::string output = readFile(resume_out);
        EXPECT_EQ(resumed, straightExit_)
            << failpoints << ": " << output;
        EXPECT_EQ(reportSection(output), straightReports_)
            << failpoints;
    }

    static int straightExit_;
    static std::string straightReports_;
};

int CrashRecovery::straightExit_ = -1;
std::string CrashRecovery::straightReports_;

TEST_F(CrashRecovery, EverySnapshotFailpointSite)
{
    mkdir(snapDir().c_str(), 0755);
    for (const char *site :
         {"snapshot.open", "snapshot.write", "snapshot.finalize",
          "snapshot.fsync", "snapshot.rename"}) {
        crashThenRecover(std::string(site) + "=crash@2");
        if (HasFatalFailure())
            return;
    }
}

TEST_F(CrashRecovery, KillAtRandomFailpoint)
{
    mkdir(snapDir().c_str(), 0755);
    const char *const sites[] = {
        "snapshot.open", "snapshot.write", "snapshot.finalize",
        "snapshot.fsync", "snapshot.rename"};
    Rng rng(0x1a11);
    const int sweeps = 4 * test::depthScale();
    for (int i = 0; i < sweeps; i++) {
        const char *site =
            sites[rng.below(sizeof(sites) / sizeof(sites[0]))];
        const std::uint64_t hit = 1 + rng.below(5);
        crashThenRecover(std::string(site) + "=crash@" +
                         std::to_string(hit));
        if (HasFatalFailure())
            return;
    }
}

/** Injected non-crash write failures: a torn or failed checkpoint
 * write aborts the run with the I/O exit code (partial results are
 * not trusted), and the next run still recovers. */
TEST_F(CrashRecovery, TornCheckpointWriteFailsLoudly)
{
    mkdir(snapDir().c_str(), 0755);
    removeDirContents(snapDir());
    const std::string out = std::string(kWorkDir) + "/torn.txt";
    const int code =
        runCli("TC_FAILPOINTS='snapshot.write=torn-write@3' " +
               checkpointed() + " > " + out + " 2>&1");
    EXPECT_EQ(code, 4) << readFile(out);

    // The torn temp file must not have become a snapshot; a resume
    // run recovers from the surviving older snapshots (or clean).
    const std::string resume_out =
        std::string(kWorkDir) + "/torn_resume.txt";
    const int resumed = runCli(checkpointed() + " --resume > " +
                               resume_out + " 2>&1");
    const std::string output = readFile(resume_out);
    EXPECT_EQ(resumed, straightExit_) << output;
    EXPECT_EQ(reportSection(output), straightReports_);
}

/** Transient checkpoint-write errors are retried away inside the
 * writer: the run completes as if nothing happened. */
TEST_F(CrashRecovery, TransientCheckpointWriteRecoversInPlace)
{
    mkdir(snapDir().c_str(), 0755);
    removeDirContents(snapDir());
    const std::string out =
        std::string(kWorkDir) + "/transient.txt";
    const int code =
        runCli("TC_FAILPOINTS='snapshot.write=transient-eio@2' " +
               checkpointed() + " > " + out + " 2>&1");
    const std::string output = readFile(out);
    EXPECT_EQ(code, straightExit_) << output;
    EXPECT_EQ(reportSection(output), straightReports_);
}

/** Kill the shard split mid-append, mid-flush and mid-finalize: the
 * unfinalized set must be rejected as corrupt by the merge (exit
 * 3). Injected append errors instead fail the split with the I/O
 * exit code and remove its shards. A clean re-split then
 * round-trips. */
TEST_F(CrashRecovery, ShardCaptureCrashLeavesRejectableSet)
{
    const std::string prefix = std::string(kWorkDir) + "/cap";
    const std::string merged =
        std::string(kWorkDir) + "/merged.tcb";
    const std::string split = "./trace_tool split " + tracePath() +
                              " " + prefix + " --shards=4";

    // split drives ShardWriter's append: "shard.append" fires per
    // record, "shard.flush" per staged buffer written,
    // "shard.finalize" once. A crash skips the writer's
    // unfinalized-set cleanup, so the sentinel headers land on
    // disk — the merge must refuse them.
    const struct
    {
        const char *failpoints;
        int exit;
    } kills[] = {
        {"shard.append=crash@5000", kFaultCrashExitCode},
        {"shard.append=torn-write@5000", 4},
        {"shard.append=eio@5000", 4},
        {"shard.flush=crash@2", kFaultCrashExitCode},
        {"shard.finalize=crash@1", kFaultCrashExitCode},
    };
    for (const auto &kill : kills) {
        const std::string out =
            std::string(kWorkDir) + "/cap_crash.txt";
        const int code =
            runCli(std::string("TC_FAILPOINTS='") +
                   kill.failpoints + "' " + split + " > " + out +
                   " 2>&1");
        ASSERT_EQ(code, kill.exit)
            << kill.failpoints << ": " << readFile(out);
        if (code != kFaultCrashExitCode) {
            // A failed (not crashed) split removes its shards.
            for (int i = 0; i < 4; i++) {
                struct stat st;
                const std::string shard =
                    prefix + "." + std::to_string(i) + ".tcs";
                EXPECT_NE(stat(shard.c_str(), &st), 0)
                    << kill.failpoints << " left " << shard;
            }
            continue;
        }

        // The crashed set must never merge into an answer.
        const int merge_code =
            runCli("./trace_tool convert " + prefix + ".0.tcs " +
                   merged + " > " + out + " 2>&1");
        EXPECT_EQ(merge_code, 3) << kill.failpoints << ": "
                                 << readFile(out);
    }

    // Clean split → merge → validate: full recovery.
    const std::string out = std::string(kWorkDir) + "/cap_ok.txt";
    ASSERT_EQ(runCli(split + " > " + out + " 2>&1"), 0)
        << readFile(out);
    ASSERT_EQ(runCli("./trace_tool convert " + prefix + ".0.tcs " +
                     merged + " > " + out + " 2>&1"),
              0)
        << readFile(out);
    EXPECT_EQ(runCli("./trace_tool validate " + merged + " > " +
                     out + " 2>&1"),
              0)
        << readFile(out);
    EXPECT_EQ(readFile(merged), readFile(tracePath()));
}

/** A resume pointed at a directory whose snapshots were all
 * corrupted starts clean and still produces the right answer. */
TEST_F(CrashRecovery, AllSnapshotsCorruptFallsBackToCleanStart)
{
    mkdir(snapDir().c_str(), 0755);
    removeDirContents(snapDir());
    // Crash late so several snapshots exist.
    const std::string out = std::string(kWorkDir) + "/corrupt.txt";
    ASSERT_EQ(runCli("TC_FAILPOINTS='snapshot.rename=crash@4' " +
                     checkpointed() + " > " + out + " 2>&1"),
              kFaultCrashExitCode);

    // Flip a byte in the middle of every snapshot on disk.
    if (DIR *d = opendir(snapDir().c_str())) {
        while (const dirent *entry = readdir(d)) {
            const std::string name = entry->d_name;
            if (name.size() < 7 ||
                name.substr(name.size() - 7) != ".tcsnap")
                continue;
            const std::string path = snapDir() + "/" + name;
            std::fstream f(path, std::ios::in | std::ios::out |
                                     std::ios::binary);
            f.seekp(300);
            const char x = 0x5a;
            f.write(&x, 1);
        }
        closedir(d);
    }

    const std::string resume_out =
        std::string(kWorkDir) + "/corrupt_resume.txt";
    const int resumed = runCli(checkpointed() + " --resume > " +
                               resume_out + " 2>&1");
    const std::string output = readFile(resume_out);
    EXPECT_EQ(resumed, straightExit_) << output;
    EXPECT_EQ(reportSection(output), straightReports_);
    EXPECT_NE(output.find("no usable snapshot"),
              std::string::npos)
        << output;
}

} // namespace
} // namespace tc
