/**
 * @file
 * Randomized differential testing of TreeClock against VectorClock:
 * both structures are driven through the same random-but-legal
 * operation sequences (the lock/fork-join discipline the engines
 * obey) and must materialize identical vector times after every
 * operation, with the tree's structural invariants intact
 * throughout. This pins the node-record storage, the dense-copy
 * cutover, the scratch-arena traversals and joinFull's unpruned
 * descent to the flat reference semantics, operation by operation.
 *
 * The mix also copies auxiliary (last-write-like) clocks with
 * copyCheckMonotone, from thread clocks and from each other, joins
 * them into thread clocks after their source moved on, overwrites
 * them with monotoneCopy and deepCopy and round-trips them through
 * serialize/deserialize; the two fleets' work counters must agree
 * on vtWork after every operation. Each clock type has an arena of
 * its own, as each analysis does, counting into its own sink. Tree
 * clocks share frozen versions at every width; vector clocks share
 * only in the wide mirror, and copy in the narrow one.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/scratch_arena.hh"
#include "core/serial.hh"
#include "core/tree_clock.hh"
#include "core/vector_clock.hh"
#include "support/rng.hh"
#include "test_helpers.hh"

namespace tc {
namespace {

/** Mirrored TC/VC fleets driven through identical operations. */
class MirrorFleet
{
  public:
    /** @p capacity: initial clock width; a small one makes growth
     * through ensure() part of what the run covers. */
    MirrorFleet(Tid threads, std::size_t locks, std::size_t aux,
                std::size_t capacity)
        : numThreads_(threads)
    {
        tcArena_.counters = &tcWork_;
        vcArena_.counters = &vcWork_;
        for (Tid t = 0; t < threads; t++) {
            tc_.emplace_back(t, capacity);
            vc_.emplace_back(t, capacity);
        }
        tcLocks_.resize(locks);
        vcLocks_.resize(locks);
        tcAux_.resize(aux);
        vcAux_.resize(aux);
        auxSource_.assign(aux, kNoSource);
        for (TreeClock &c : tc_)
            wire(c);
        for (VectorClock &c : vc_)
            wire(c);
        for (auto *fleet : {&tcLocks_, &tcAux_})
            for (TreeClock &c : *fleet)
                wire(c);
        for (auto *fleet : {&vcLocks_, &vcAux_})
            for (VectorClock &c : *fleet)
                wire(c);
    }

    void
    increment(std::size_t t, Clk d)
    {
        tc_[t].increment(d);
        vc_[t].increment(d);
        checkClock(tc_[t], vc_[t], "increment");
    }

    /** acquire+release round on lock @p l by thread @p t. */
    void
    lockRound(std::size_t t, std::size_t l)
    {
        tc_[t].increment(1);
        vc_[t].increment(1);
        tc_[t].join(tcLocks_[l]);
        vc_[t].join(vcLocks_[l]);
        checkClock(tc_[t], vc_[t], "acquire-join");
        tc_[t].increment(1);
        vc_[t].increment(1);
        tcLocks_[l].monotoneCopy(tc_[t]);
        vcLocks_[l].monotoneCopy(vc_[t]);
        checkClock(tcLocks_[l], vcLocks_[l], "release-copy");
    }

    /** Direct thread-to-thread join (the fork/join shape); with
     * @p full the tree clock takes joinFull's unpruned descent. */
    void
    threadJoin(std::size_t dst, std::size_t src, bool full)
    {
        if (dst == src)
            return;
        tc_[dst].increment(1);
        vc_[dst].increment(1);
        if (full)
            tc_[dst].joinFull(tc_[src]);
        else
            tc_[dst].join(tc_[src]);
        vc_[dst].join(vc_[src]);
        checkClock(tc_[dst], vc_[dst],
                   full ? "thread-join-full" : "thread-join");
    }

    /** SHB's CopyCheckMonotone into an auxiliary clock: a share. */
    void
    copyCheck(std::size_t a, std::size_t t)
    {
        tcAux_[a].copyCheckMonotone(tc_[t]);
        vcAux_[a].copyCheckMonotone(vc_[t]);
        auxSource_[a] = t;
        shares_ += tcAux_[a].sharedCopy() != nullptr;
        shares_ += vcAux_[a].sharedCopy() != nullptr;
        checkClock(tcAux_[a], vcAux_[a], "copy-check-monotone");
    }

    /** copyCheckMonotone from another auxiliary clock, which may
     * itself share, or may never have been copied into and so be
     * empty. */
    void
    auxCopyCheck(std::size_t a, std::size_t b)
    {
        if (a == b)
            return;
        tcAux_[a].copyCheckMonotone(tcAux_[b]);
        vcAux_[a].copyCheckMonotone(vcAux_[b]);
        auxSource_[a] = auxSource_[b];
        shares_ += tcAux_[a].sharedCopy() != nullptr;
        shares_ += vcAux_[a].sharedCopy() != nullptr;
        checkClock(tcAux_[a], vcAux_[a], "aux-copy-check-monotone");
    }

    /** copyCheckMonotone calls that left their target sharing. */
    std::uint64_t shares() const { return shares_; }

    void
    deepCopy(std::size_t a, std::size_t t)
    {
        tcAux_[a].deepCopy(tc_[t]);
        vcAux_[a].deepCopy(vc_[t]);
        auxSource_[a] = t;
        checkClock(tcAux_[a], vcAux_[a], "deep-copy");
    }

    /** Join an auxiliary clock into thread @p t: a shared copy is
     * read as of its copy, whatever its source did since. */
    void
    joinAux(std::size_t t, std::size_t a)
    {
        tc_[t].increment(1);
        vc_[t].increment(1);
        tc_[t].join(tcAux_[a]);
        vc_[t].join(vcAux_[a]);
        checkClock(tc_[t], vc_[t], "aux-join");
        checkClock(tcAux_[a], vcAux_[a], "aux-join operand");
    }

    /** Overwrite an auxiliary clock with its source's current time
     * through monotoneCopy (its precondition holds: thread clocks
     * only grow). */
    void
    refreshAux(std::size_t a)
    {
        const std::size_t t = auxSource_[a];
        if (t == kNoSource)
            return;
        tcAux_[a].monotoneCopy(tc_[t]);
        vcAux_[a].monotoneCopy(vc_[t]);
        checkClock(tcAux_[a], vcAux_[a], "aux-monotone-copy");
    }

    /** Serialize an auxiliary clock and restore it, into itself or
     * into a fresh clock moved into its place. */
    void
    roundTripAux(std::size_t a, bool in_place)
    {
        ByteSink tbytes, vbytes;
        tcAux_[a].serialize(tbytes);
        vcAux_[a].serialize(vbytes);
        ByteSource tin(tbytes.bytes()), vin(vbytes.bytes());
        if (in_place) {
            ASSERT_TRUE(tcAux_[a].deserialize(tin));
            ASSERT_TRUE(vcAux_[a].deserialize(vin));
        } else {
            TreeClock tree;
            VectorClock flat;
            wire(tree);
            wire(flat);
            ASSERT_TRUE(tree.deserialize(tin));
            ASSERT_TRUE(flat.deserialize(vin));
            tcAux_[a] = std::move(tree);
            vcAux_[a] = std::move(flat);
        }
        checkClock(tcAux_[a], vcAux_[a], "aux-round-trip");
        // The restored clock serializes to the same bytes.
        ByteSink again;
        tcAux_[a].serialize(again);
        ASSERT_EQ(again.bytes(), tbytes.bytes()) << "aux-round-trip";
    }

    /** Both fleets did the same vector-time work so far. */
    void
    checkWork(const char *where) const
    {
        ASSERT_EQ(tcWork_.vtWork, vcWork_.vtWork) << where;
        ASSERT_EQ(tcWork_.copies, vcWork_.copies) << where;
    }

    void
    checkAll() const
    {
        for (std::size_t t = 0; t < tc_.size(); t++)
            checkClock(tc_[t], vc_[t], "final thread");
        for (std::size_t l = 0; l < tcLocks_.size(); l++)
            checkClock(tcLocks_[l], vcLocks_[l], "final lock");
        for (std::size_t a = 0; a < tcAux_.size(); a++)
            checkClock(tcAux_[a], vcAux_[a], "final aux");
    }

  private:
    static constexpr std::size_t kNoSource = ~std::size_t{0};

    void wire(TreeClock &clock) { clock.setArena(&tcArena_); }
    void wire(VectorClock &clock) { clock.setArena(&vcArena_); }

    void
    checkClock(const TreeClock &tree, const VectorClock &flat,
               const char *where) const
    {
        const auto k = static_cast<std::size_t>(numThreads_);
        ASSERT_EQ(tree.toVector(k), flat.toVector(k)) << where;
        ASSERT_EQ(tree.checkInvariants(), "") << where;
    }

    Tid numThreads_;
    WorkCounters tcWork_, vcWork_;
    /** Declared before the clocks, which point into them. */
    ScratchArena tcArena_, vcArena_;
    std::vector<TreeClock> tc_;
    std::vector<VectorClock> vc_;
    std::vector<TreeClock> tcLocks_;
    std::vector<VectorClock> vcLocks_;
    std::vector<TreeClock> tcAux_;
    std::vector<VectorClock> vcAux_;
    /** The thread each auxiliary clock was last copied from. */
    std::vector<std::size_t> auxSource_;
    std::uint64_t shares_ = 0;
};

/** Drive @p fleet through @p steps random operations. */
void
randomMix(MirrorFleet &fleet, Tid threads, std::size_t locks,
          std::size_t aux, int steps)
{
    Rng rng(0xd1ffULL);
    for (int step = 0; step < steps; step++) {
        const auto t = static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(threads)));
        const std::uint64_t op = rng.below(17);
        const auto a = static_cast<std::size_t>(rng.below(aux));
        switch (op) {
          case 0:
          case 1:
            fleet.increment(
                t, static_cast<Clk>(1 + rng.below(3)));
            break;
          case 2:
          case 3:
          case 4:
          case 5:
            fleet.lockRound(
                t, static_cast<std::size_t>(rng.below(locks)));
            break;
          case 6:
          case 7:
          case 10:
            fleet.threadJoin(
                t,
                static_cast<std::size_t>(rng.below(
                    static_cast<std::uint64_t>(threads))),
                op == 10);
            break;
          case 8:
          case 11:
            fleet.copyCheck(a, t);
            break;
          case 9:
            fleet.deepCopy(a, t);
            break;
          case 12:
          case 13:
            fleet.joinAux(t, a);
            break;
          case 14:
            fleet.refreshAux(a);
            break;
          case 15:
            fleet.roundTripAux(a, rng.below(2) == 0);
            break;
          case 16:
            fleet.auxCopyCheck(
                a, static_cast<std::size_t>(rng.below(aux)));
            break;
        }
        if (!::testing::Test::HasFatalFailure())
            fleet.checkWork("after the step");
        if (::testing::Test::HasFatalFailure())
            return;
    }
    fleet.checkAll();
}

TEST(TreeClockDifferential, RandomizedJoinCopyAgreesWithVectorClock)
{
    // Narrow clocks grown from width 1: tree clocks share unless the
    // target is the wider clock, vector clocks copy.
    MirrorFleet fleet(11, 5, 4, 1);
    randomMix(fleet, 11, 5, 4, 4000 * test::depthScale());
}

TEST(TreeClockDifferential, SharedCopiesAgreeWithVectorClock)
{
    // 130 threads: both clock types are wide enough to share.
    const Tid threads = 130;
    MirrorFleet fleet(threads, 5, 6, static_cast<std::size_t>(threads));
    randomMix(fleet, threads, 5, 6, 3000 * test::depthScale());
    EXPECT_GT(fleet.shares(), 0u);
}

} // namespace
} // namespace tc
