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
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

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
    MirrorFleet(Tid threads, std::size_t locks, std::size_t aux)
        : numThreads_(threads)
    {
        for (Tid t = 0; t < threads; t++) {
            // Deliberately small initial capacity: growth through
            // ensure() is part of what the differential run covers.
            tc_.emplace_back(t, 1);
            vc_.emplace_back(t, 1);
        }
        tcLocks_.resize(locks);
        vcLocks_.resize(locks);
        tcAux_.resize(aux);
        vcAux_.resize(aux);
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

    /** SHB's CopyCheckMonotone into an auxiliary clock. */
    void
    copyCheck(std::size_t a, std::size_t t)
    {
        tcAux_[a].copyCheckMonotone(tc_[t]);
        vcAux_[a].copyCheckMonotone(vc_[t]);
        checkClock(tcAux_[a], vcAux_[a], "copy-check-monotone");
    }

    void
    deepCopy(std::size_t a, std::size_t t)
    {
        tcAux_[a].deepCopy(tc_[t]);
        vcAux_[a].deepCopy(vc_[t]);
        checkClock(tcAux_[a], vcAux_[a], "deep-copy");
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
    void
    checkClock(const TreeClock &tree, const VectorClock &flat,
               const char *where) const
    {
        const auto k = static_cast<std::size_t>(numThreads_);
        ASSERT_EQ(tree.toVector(k), flat.toVector(k)) << where;
        ASSERT_EQ(tree.checkInvariants(), "") << where;
    }

    Tid numThreads_;
    std::vector<TreeClock> tc_;
    std::vector<VectorClock> vc_;
    std::vector<TreeClock> tcLocks_;
    std::vector<VectorClock> vcLocks_;
    std::vector<TreeClock> tcAux_;
    std::vector<VectorClock> vcAux_;
};

TEST(TreeClockDifferential, RandomizedJoinCopyAgreesWithVectorClock)
{
    const Tid threads = 11;
    const std::size_t locks = 5;
    const std::size_t aux = 3;
    MirrorFleet fleet(threads, locks, aux);

    Rng rng(0xd1ffULL);
    const int steps = 4000 * test::depthScale();
    for (int step = 0; step < steps; step++) {
        const auto t = static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(threads)));
        const std::uint64_t op = rng.below(11);
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
            fleet.copyCheck(
                static_cast<std::size_t>(rng.below(aux)), t);
            break;
          case 9:
            fleet.deepCopy(
                static_cast<std::size_t>(rng.below(aux)), t);
            break;
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
    fleet.checkAll();
}

} // namespace
} // namespace tc
