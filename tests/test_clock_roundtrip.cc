/**
 * @file
 * Serialization round-trip property tests for the three clock
 * representations. A clock evolved through a random walk of
 * increments, joins and copies must survive serialize →
 * deserialize bit-exactly (observable state: every thread's time,
 * the owner/root, and continued evolution), and the decoders must
 * reject every truncation of a valid blob instead of reading past
 * the end — the .tcsnap loader leans on both properties.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/serial.hh"
#include "core/sparse_vector_clock.hh"
#include "core/tree_clock.hh"
#include "core/vector_clock.hh"
#include "support/rng.hh"
#include "test_helpers.hh"

namespace tc {
namespace {

constexpr Tid kThreads = 9;
constexpr std::size_t kLocks = 4;

/**
 * The clock population of one simulated execution: per-thread
 * clocks plus auxiliary (lock-release) clocks. The walk follows
 * the engines' usage discipline — thread clocks only increment
 * and join, auxiliary clocks only receive monotoneCopy from a
 * thread that just joined them — because TreeClock's
 * join/monotoneCopy preconditions (the operand never knows the
 * owner's future; this ⊑ other) are guaranteed by exactly that
 * discipline, not by arbitrary clock graphs.
 */
template <typename ClockT>
struct WalkState
{
    std::vector<ClockT> threads;
    std::vector<ClockT> locks;

    WalkState()
    {
        for (Tid t = 0; t < kThreads; t++)
            threads.emplace_back(t, kThreads);
        locks.resize(kLocks);
    }

    std::vector<ClockT *>
    all()
    {
        std::vector<ClockT *> out;
        for (ClockT &c : threads)
            out.push_back(&c);
        for (ClockT &c : locks)
            out.push_back(&c);
        return out;
    }
};

/** Drive @p state through @p steps random local-step /
 * fork-join-edge / lock-sync operations. */
template <typename ClockT>
void
randomWalk(WalkState<ClockT> &state, Rng &rng, int steps)
{
    for (int s = 0; s < steps; s++) {
        const auto a = static_cast<std::size_t>(
            rng.below(state.threads.size()));
        const auto b = static_cast<std::size_t>(
            rng.below(state.threads.size()));
        switch (rng.below(4)) {
          case 0:
            state.threads[a].increment(
                static_cast<Clk>(1 + rng.below(3)));
            break;
          case 1:
            // Fork/join edge: b's knowledge of a is a's past, so
            // the join precondition holds inductively.
            if (a != b)
                state.threads[a].join(state.threads[b]);
            break;
          default: {
            // Critical section on a random lock: acquire (join
            // the release clock) then release (publish the
            // acquirer's clock). The acquire establishes
            // lock ⊑ thread, monotoneCopy's precondition.
            ClockT &lock = state.locks[static_cast<std::size_t>(
                rng.below(state.locks.size()))];
            state.threads[a].join(lock);
            state.threads[a].increment(1);
            lock.monotoneCopy(state.threads[a]);
            break;
          }
        }
    }
}

/** The observable state two equal clocks must agree on. */
template <typename ClockT>
void
expectSameTimes(const ClockT &expected, const ClockT &actual)
{
    for (Tid t = 0; t < kThreads + 2; t++)
        ASSERT_EQ(expected.get(t), actual.get(t))
            << "thread " << t;
    EXPECT_EQ(expected.localClk(), actual.localClk());
    EXPECT_EQ(expected.empty(), actual.empty());
}

template <typename ClockT>
void
roundTripWalk(std::uint64_t seed)
{
    Rng rng(seed);
    WalkState<ClockT> state;
    randomWalk(state, rng, 400);

    // Every clock in the population — thread and auxiliary —
    // survives serialize → deserialize bit-exactly.
    std::vector<ClockT *> originals = state.all();
    WalkState<ClockT> restored;
    std::vector<ClockT *> copies = restored.all();
    for (std::size_t i = 0; i < originals.size(); i++) {
        ByteSink out;
        originals[i]->serialize(out);
        ByteSource in(out.bytes());
        ClockT loaded;
        ASSERT_TRUE(loaded.deserialize(in))
            << "clock " << i;
        EXPECT_TRUE(in.atEnd())
            << "decoder left trailing bytes (clock " << i << ")";
        expectSameTimes(*originals[i], loaded);
        *copies[i] = std::move(loaded);
    }

    // A restored population must keep evolving exactly like the
    // one it was copied from: continue the walk on both in
    // lockstep and compare again.
    Rng walk_a(seed ^ 0xabcdef), walk_b(seed ^ 0xabcdef);
    randomWalk(state, walk_a, 200);
    randomWalk(restored, walk_b, 200);
    for (std::size_t i = 0; i < originals.size(); i++)
        expectSameTimes(*originals[i], *copies[i]);
}

/** Every strict prefix of a valid blob must be rejected. */
template <typename ClockT>
void
rejectTruncations(std::uint64_t seed)
{
    Rng rng(seed);
    WalkState<ClockT> state;
    randomWalk(state, rng, 300);

    ByteSink out;
    state.threads[3].serialize(out);
    const std::vector<std::uint8_t> &bytes = out.bytes();
    for (std::size_t len = 0; len < bytes.size(); len++) {
        ByteSource in(bytes.data(), len);
        ClockT loaded;
        EXPECT_FALSE(loaded.deserialize(in))
            << "accepted a " << len << "-byte prefix of a "
            << bytes.size() << "-byte blob";
    }
}

TEST(ClockRoundTrip, TreeClockRandomWalks)
{
    for (int i = 0; i < 4 * test::depthScale(); i++)
        roundTripWalk<TreeClock>(1000 + i);
}

TEST(ClockRoundTrip, VectorClockRandomWalks)
{
    for (int i = 0; i < 4 * test::depthScale(); i++)
        roundTripWalk<VectorClock>(2000 + i);
}

TEST(ClockRoundTrip, SparseVectorClockRandomWalks)
{
    for (int i = 0; i < 4 * test::depthScale(); i++)
        roundTripWalk<SparseVectorClock>(3000 + i);
}

TEST(ClockRoundTrip, EmptyClocks)
{
    {
        ByteSink out;
        TreeClock().serialize(out);
        ByteSource in(out.bytes());
        TreeClock loaded;
        ASSERT_TRUE(loaded.deserialize(in));
        EXPECT_TRUE(loaded.empty());
    }
    {
        ByteSink out;
        VectorClock().serialize(out);
        ByteSource in(out.bytes());
        VectorClock loaded;
        ASSERT_TRUE(loaded.deserialize(in));
        EXPECT_TRUE(loaded.empty());
    }
    {
        ByteSink out;
        SparseVectorClock().serialize(out);
        ByteSource in(out.bytes());
        SparseVectorClock loaded;
        ASSERT_TRUE(loaded.deserialize(in));
        EXPECT_TRUE(loaded.empty());
    }
}

TEST(ClockRoundTrip, TreeClockSerializesSixColumns)
{
    // The .tcsnap clock record: root, fallback count, then one
    // length-prefixed column per node field. Pinned byte for byte
    // so the in-memory layout can change without touching
    // checkpoints.
    TreeClock a(0, 3), b(1, 3);
    b.increment(2);
    a.increment(1);
    a.join(b); // t0 (1) with child t1 (2, aclk 1); t2 absent

    ByteSink expected;
    expected.putI32(0);
    expected.putU64(0);
    expected.putVec(std::vector<Clk>{1, 2, 0});     // clk
    expected.putVec(std::vector<Clk>{0, 1, 0});     // aclk
    expected.putVec(std::vector<Tid>{-1, 0, -2});   // parent
    expected.putVec(std::vector<Tid>{1, -1, -1});   // firstChild
    expected.putVec(std::vector<Tid>{-1, -1, -1});  // nextSib
    expected.putVec(std::vector<Tid>{-1, -1, -1});  // prevSib

    ByteSink out;
    a.serialize(out);
    EXPECT_EQ(out.bytes(), expected.bytes());
}

TEST(ClockRoundTrip, TreeClockRejectsTruncation)
{
    rejectTruncations<TreeClock>(41);
}

TEST(ClockRoundTrip, VectorClockRejectsTruncation)
{
    rejectTruncations<VectorClock>(42);
}

TEST(ClockRoundTrip, SparseVectorClockRejectsTruncation)
{
    rejectTruncations<SparseVectorClock>(43);
}

/** Single-byte corruptions must never crash the decoders, and a
 * successful decode must yield an internally consistent clock
 * (deterministic get()); the structural validators catch the rest.
 * Full snapshot-level corruption coverage lives in
 * test_snapshot_fuzz. */
template <typename ClockT>
void
surviveByteFlips(std::uint64_t seed)
{
    Rng rng(seed);
    WalkState<ClockT> state;
    randomWalk(state, rng, 300);

    ByteSink out;
    state.threads[1].serialize(out);
    std::vector<std::uint8_t> bytes = out.bytes();
    for (std::size_t i = 0; i < bytes.size(); i++) {
        for (std::uint8_t mask : {0x01, 0x80}) {
            std::vector<std::uint8_t> mutated = bytes;
            mutated[i] ^= mask;
            ByteSource in(mutated);
            ClockT loaded;
            if (!loaded.deserialize(in))
                continue;
            // Whatever decoded must at least be queryable without
            // UB; ASan/UBSan police the rest of the claim.
            for (Tid t = 0; t < kThreads + 2; t++)
                (void)loaded.get(t);
        }
    }
}

TEST(ClockRoundTrip, TreeClockSurvivesByteFlips)
{
    surviveByteFlips<TreeClock>(51);
}

TEST(ClockRoundTrip, VectorClockSurvivesByteFlips)
{
    surviveByteFlips<VectorClock>(52);
}

TEST(ClockRoundTrip, SparseVectorClockSurvivesByteFlips)
{
    surviveByteFlips<SparseVectorClock>(53);
}

} // namespace
} // namespace tc
