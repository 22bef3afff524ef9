/**
 * @file
 * The single event loop behind every analysis in this repository.
 *
 * The paper's engines (Algorithms 1–5) share one shape: a per-event
 * loop that advances the performing thread's clock, routes
 * synchronization events through the lock/fork/join rules common to
 * all partial orders, and delegates access events to order-specific
 * rules. AnalysisDriver owns that loop plus all the state it needs —
 * the clock bank (C_t / L_l), the traversal scratch arena, the race
 * summary — and is parameterized by an EnginePolicy supplying only
 * the access-event rules (HbPolicy / ShbPolicy / MazPolicy in the
 * engine headers).
 *
 * Two consumption modes, one semantics:
 *  - feed(e): event-at-a-time streaming. Id spaces grow on demand,
 *    results are inspectable mid-stream — this is the online mode
 *    (OnlineRaceDetector is exactly this driver with HbPolicy).
 *  - run(source) / run(trace): a reset, an upfront reservation of
 *    the declared id spaces, then a feed loop. run(EventSource&)
 *    never materializes the stream, so any engine × any clock
 *    analyzes traces larger than memory through the chunked file
 *    sources of trace/event_source.hh.
 *
 * Feeding a trace event-by-event and batch-running it produce
 * identical EngineResults for every policy and clock backend (the
 * streaming-equivalence test suite enforces this).
 */

#ifndef TC_ANALYSIS_ANALYSIS_DRIVER_HH
#define TC_ANALYSIS_ANALYSIS_DRIVER_HH

#include <vector>

#include "analysis/engine_support.hh"
#include "core/scratch_arena.hh"
#include "core/serial.hh"
#include "trace/event_source.hh"

namespace tc {

template <ClockLike ClockT, template <typename> class PolicyT>
class AnalysisDriver
{
  public:
    using Policy = PolicyT<ClockT>;

    /** Does ClockT translate external ids through a ThreadIdMap?
     * True for TreeClock (slot recycling); flat clocks stay
     * external-indexed and never activate the map. */
    static constexpr bool kUsesIdMap =
        requires(ClockT c, const ThreadIdMap *m) { c.setIdMap(m); };

    explicit AnalysisDriver(EngineConfig cfg = {})
        : cfg_(std::move(cfg)), races_(0, cfg_.maxReports)
    {
        cfg_.idMap = &idMap_;
        policy_.configure(&cfg_, &arena_);
    }

    /** Clocks hold pointers into arena_; pin the driver. */
    AnalysisDriver(const AnalysisDriver &) = delete;
    AnalysisDriver &operator=(const AnalysisDriver &) = delete;

    const EngineConfig &config() const { return cfg_; }

    /**
     * Start a fresh run: drop all per-run state (the scratch arena
     * is retained) and pre-size the id spaces @p si declares. This
     * is run() decomposed — begin(), a feed() per event, result() —
     * for callers that interleave several drivers over one event
     * stream (AnalysisPipeline) instead of letting one driver drain
     * the source by itself.
     */
    void
    begin(const SourceInfo &si)
    {
        resetState();
        reserve(si);
    }

    /**
     * Process one event. Ids may exceed anything seen before; state
     * grows on demand. Event well-formedness is always checked. A
     * lock-discipline violation (acquiring a held lock, releasing a
     * lock one does not hold) or a thread-protocol violation (see
     * ThreadRule: a fork or tcreate of a thread that already ran, a
     * second fork or join of one thread, a tjoin without tcreate, a
     * thread acting after its join, ...) is an input error: feed
     * throws TraceInputError with the event's index and the message
     * Trace::validate() gives, and the run is over (begin() again
     * before reuse).
     */
    void
    feed(const Event &e)
    {
        const std::size_t index =
            static_cast<std::size_t>(eventsProcessed_);
        // Grow all id spaces before taking references: emplacing a
        // fork/join/lifecycle target would otherwise reallocate
        // threads_ from under `ct`.
        ensureThread(e.tid);
        if (e.isFork() || e.isJoin() || e.isThreadJoin() ||
            e.isThreadRetire())
            ensureThread(e.targetTid());
        if (joined(lifeState(e.tid)))
            throwThreadRule(index, ThreadRule::ActsAfterJoin, e);
        if (e.isThreadCreate())
            prepareCreate(index, e);
        ClockT &ct = threads_[slotIndex(e.tid)];
        const Clk c = ++local_[static_cast<std::size_t>(e.tid)];
        ct.increment(1);
        eventsProcessed_++;

        switch (e.op) {
          case OpType::Read:
            ensureVar(e.var());
            policy_.onRead(e, c, ct, threadsSeen(), races_);
            break;
          case OpType::Write:
            ensureVar(e.var());
            policy_.onWrite(e, c, ct, threadsSeen(), races_);
            break;
          case OpType::Acquire: {
            ensureLock(e.lock());
            LockState &lock =
                locks_[static_cast<std::size_t>(e.lock())];
            if (lock.holder != kNoTid)
                throwLockHeld(index, e.lock(), lock.holder);
            lock.holder = e.tid;
            detail::joinClock(ct, lock.clock, cfg_);
            break;
          }
          case OpType::Release: {
            ensureLock(e.lock());
            LockState &lock =
                locks_[static_cast<std::size_t>(e.lock())];
            if (lock.holder != e.tid)
                throwLockNotHeld(index, e.lock(), e.tid, lock.holder);
            lock.holder = kNoTid;
            lock.clock.monotoneCopy(ct);
            if (cfg_.deepChecks)
                detail::deepCheck(lock.clock);
            break;
          }
          case OpType::Fork: {
            const Tid child = e.targetTid();
            if (child == e.tid)
                throwThreadRule(index, ThreadRule::SelfTarget, e);
            if (local_[static_cast<std::size_t>(child)] != 0)
                throwThreadRule(index, ThreadRule::TargetStarted, e);
            if (lifeState(child) & kForked)
                throwThreadRule(index, ThreadRule::ForkedTwice, e);
            if (managed(lifeState(child)))
                throwThreadRule(index, ThreadRule::ForkOfManaged, e);
            lifeState_[static_cast<std::size_t>(child)] |= kForked;
            detail::joinClock(threads_[slotIndex(child)], ct, cfg_);
            if (cfg_.deepChecks)
                detail::deepCheck(threads_[slotIndex(child)]);
            break;
          }
          case OpType::Join: {
            const Tid child = e.targetTid();
            if (child == e.tid)
                throwThreadRule(index, ThreadRule::SelfTarget, e);
            std::uint8_t &state =
                lifeState_[static_cast<std::size_t>(child)];
            if (joined(state))
                throwThreadRule(index, ThreadRule::JoinedTwice, e);
            state = state == kLive ? kJoined : state | kJoinedPlain;
            detail::joinClock(ct, threads_[slotIndex(child)], cfg_);
            break;
          }
          case OpType::ThreadCreate: {
            // prepareCreate() already assigned the child its slot
            // and reset its clock to the occupancy bias; what is
            // left is the fork-like publish of the parent's clock.
            // With a recycled slot the publish must descend fully
            // (see TreeClock::joinFull): the child's synthetic root
            // entry must not prune operand subtrees hanging under
            // the slot's stale node.
            ClockT &cc = threads_[slotIndex(e.targetTid())];
            if constexpr (kUsesIdMap)
                cc.joinFull(ct);
            else
                detail::joinClock(cc, ct, cfg_);
            if (cfg_.deepChecks)
                detail::deepCheck(cc);
            break;
          }
          case OpType::ThreadJoin: {
            const Tid child = e.targetTid();
            if (child == e.tid)
                throwThreadRule(index, ThreadRule::SelfTarget, e);
            if (!managed(lifeState(child)))
                throwThreadRule(index, ThreadRule::JoinWithoutCreate,
                                e);
            if (lifeState(child) != kLive)
                throwThreadRule(index, ThreadRule::JoinedTwice, e);
            lifeState_[static_cast<std::size_t>(child)] = kJoined;
            detail::joinClock(ct, threads_[slotIndex(child)], cfg_);
            break;
          }
          case OpType::ThreadRetire: {
            const Tid child = e.targetTid();
            if (lifeState(child) == kRetired)
                throwThreadRule(index, ThreadRule::RetiredTwice, e);
            if (lifeState(child) != kJoined)
                throwThreadRule(index, ThreadRule::RetireWithoutJoin,
                                e);
            lifeState_[static_cast<std::size_t>(child)] = kRetired;
            if constexpr (kUsesIdMap) {
                // The slot becomes reusable at the thread's final
                // raw value; its clock object is recycled in place
                // by a later create's resetToRoot.
                idMap_.retireExt(
                    child, local_[static_cast<std::size_t>(child)]);
            } else if constexpr (requires(ClockT &cl) {
                                     cl.release();
                                 }) {
                // Flat clocks cannot recycle the id space; all the
                // retire path can reclaim is the dead thread's own
                // vector (see VectorClock::release).
                threads_[slotIndex(child)].release();
            }
            break;
          }
        }

        if (cfg_.deepChecks)
            detail::deepCheck(ct);
        if (cfg_.onTimestamp)
            cfg_.onTimestamp(index, e,
                             ct.toVector(timestampWidth()));
    }

    /**
     * Batch mode over a materialized trace: validate (per config),
     * reserve the declared id spaces, feed every event.
     */
    EngineResult
    run(const Trace &trace)
    {
        detail::maybeValidate(trace, cfg_);
        begin({trace.numThreads(), trace.numLocks(),
               trace.numVars(), trace.size(),
               trace.hasLifecycle()});
        for (std::size_t i = 0; i < trace.size(); i++)
            feed(trace[i]);
        return result();
    }

    /**
     * Streaming mode: drain @p source through feed() without ever
     * materializing the event sequence. The source is consumed
     * from its *current* position (streams may be non-seekable) —
     * pass a fresh source or rewind() first, or an already-drained
     * source yields a clean 0-event result. A source that fails
     * mid-stream (truncated or malformed file) stops the drain;
     * the returned result covers the consumed prefix and the
     * caller must check source.failed() to distinguish that from a
     * clean end of stream.
     *
     * EngineConfig::validate is necessarily ignored here: whole-
     * trace validation needs the full event vector. feed() checks
     * the same lock-discipline and thread-protocol rules (plain
     * fork/join and tcreate / tjoin / tretire) event by event and
     * throws TraceInputError with validate()'s event and message.
     */
    EngineResult
    run(EventSource &source)
    {
        begin(source.info());
        // Pull whole windows: one virtual call per window, and
        // zero-copy where the source can manage it (a view into a
        // materialized trace, a swapped-out prefetch buffer — see
        // EventSource::readWindow).
        std::vector<Event> storage;
        EventWindow window;
        while (!(window = source.readWindow(
                     storage, kDefaultSourceWindow))
                    .empty()) {
            for (const Event &e : window)
                feed(e);
        }
        return result();
    }

    /** Results so far (streaming consumers may snapshot mid-run). */
    EngineResult
    result() const
    {
        EngineResult r;
        r.events = eventsProcessed_;
        r.races = races_;
        if (cfg_.counters)
            r.work = *cfg_.counters;
        return r;
    }

    /** @name Convenience instrumentation hooks (online use) @{ */
    void read(Tid t, VarId x) { feed(Event(t, OpType::Read, x)); }
    void write(Tid t, VarId x) { feed(Event(t, OpType::Write, x)); }
    void
    acquire(Tid t, LockId l)
    {
        feed(Event(t, OpType::Acquire, l));
    }
    void
    release(Tid t, LockId l)
    {
        feed(Event(t, OpType::Release, l));
    }
    void fork(Tid t, Tid u) { feed(Event(t, OpType::Fork, u)); }
    void join(Tid t, Tid u) { feed(Event(t, OpType::Join, u)); }
    void
    threadCreate(Tid t, Tid u)
    {
        feed(Event(t, OpType::ThreadCreate, u));
    }
    void
    threadJoin(Tid t, Tid u)
    {
        feed(Event(t, OpType::ThreadJoin, u));
    }
    void
    threadRetire(Tid t, Tid u)
    {
        feed(Event(t, OpType::ThreadRetire, u));
    }
    /** @} */

    /** Race results so far (live; totals only grow). */
    const RaceSummary &races() const { return races_; }
    std::uint64_t eventsProcessed() const
    {
        return eventsProcessed_;
    }
    /** External thread ids met so far — the width of externally
     * indexed state (access histories, reports, timestamps). The
     * clock bank may be narrower when retired slots are recycled. */
    Tid threadsSeen() const
    {
        return static_cast<Tid>(local_.size());
    }

    /** @name Checkpoint save/restore (core/serial.hh)
     *
     * saveState() serializes the complete per-run analysis state —
     * the clock bank, per-thread local times, lock states, the
     * policy's per-variable state, the race summary, the event
     * position and the accumulated work counters — such that
     * restoreState() on a fresh driver of the same instantiation
     * resumes the analysis mid-stream with results identical to an
     * uninterrupted run (the snapshot differential suite pins
     * this). Configuration (EngineConfig) is not serialized: a
     * snapshot only restores into a driver configured the same way.
     *
     * restoreState() returns false on malformed input; the driver
     * is then in an unspecified (but safe) state and must be
     * begin()- or restoreState()-ed again before use.
     * @{ */
    void
    saveState(ByteSink &out) const
    {
        // Self-describing layout: a marker no event count can reach
        // (kStateMarker ≥ 2^63) distinguishes the lifecycle-aware
        // layout from pre-lifecycle blobs, whose first u64 was the
        // event count. Old blobs restore through the legacy path
        // below, so pre-bump snapshots stay loadable.
        out.putU64(kStateMarker);
        out.putU32(kStateVersion);
        out.putU64(eventsProcessed_);
        out.putU64(declaredThreads_);
        out.putVec(local_);
        out.putVec(lifeState_);
        out.putVec(seen_);
        idMap_.serialize(out);
        out.putU64(threads_.size());
        for (const ClockT &clock : threads_)
            clock.serialize(out);
        out.putU64(locks_.size());
        for (const LockState &l : locks_) {
            l.clock.serialize(out);
            out.putI32(l.holder);
        }
        policy_.saveState(out);
        races_.serialize(out);
        const WorkCounters work =
            cfg_.counters ? *cfg_.counters : WorkCounters{};
        work.serialize(out);
    }

    bool
    restoreState(ByteSource &in)
    {
        resetState();
        std::uint64_t first = 0;
        if (!in.getU64(first))
            return false;
        // State of the retired sharded consumer (--shard-analysis):
        // per-shard sections behind a header that would otherwise
        // read as a legacy event count. Never restore it.
        if (first == kShardedStateMarker)
            return in.fail();
        const bool legacy = first != kStateMarker;
        if (!legacy) {
            std::uint32_t version = 0;
            if (!in.getU32(version) || version != kStateVersion)
                return in.fail();
            if (!in.getU64(eventsProcessed_))
                return false;
        } else {
            eventsProcessed_ = first;
        }
        std::uint64_t thread_count = 0, lock_count = 0;
        std::uint64_t declared = 0;
        if (!in.getU64(declared) || !in.getVec(local_))
            return false;
        declaredThreads_ = static_cast<std::size_t>(declared);
        if (legacy) {
            // Pre-lifecycle blobs carry no seen bits; those runs
            // treated every id below the declared width as met,
            // which is what an activation after resume must mirror.
            lifeState_.assign(local_.size(), kNone);
            seen_.assign(local_.size(), 1);
        } else {
            if (!in.getVec(lifeState_) || !in.getVec(seen_) ||
                !idMap_.deserialize(in))
                return false;
            if (lifeState_.size() != local_.size() ||
                seen_.size() != local_.size())
                return in.fail();
            // The map grows per met/created id, so it can trail the
            // (possibly pre-sized) external width — never exceed it.
            if (idMap_.active() &&
                idMap_.extCount() > local_.size())
                return in.fail();
        }
        extSeen_ = seen_.size();
        while (extSeen_ > 0 && !seen_[extSeen_ - 1])
            extSeen_--;
        if (!in.getU64(thread_count) ||
            thread_count > in.remaining())
            return in.fail();
        // Active map: every slot must have a clock (extra trailing
        // clocks — an eagerly built bank — are harmless). Inactive:
        // the bank is identity-indexed, at most the external width
        // (smaller when clocks were built lazily).
        if (idMap_.active()
                ? thread_count < idMap_.slotCount()
                : thread_count > local_.size())
            return in.fail();
        threads_.reserve(static_cast<std::size_t>(thread_count));
        for (std::uint64_t t = 0; t < thread_count; t++) {
            threads_.emplace_back();
            detail::configureClock(threads_.back(), cfg_, &arena_);
            if (!threads_.back().deserialize(in))
                return false;
        }
        if (!in.getU64(lock_count) || lock_count > in.remaining())
            return in.fail();
        for (std::uint64_t l = 0; l < lock_count; l++) {
            locks_.emplace_back();
            detail::configureClock(locks_.back().clock, cfg_,
                                   &arena_);
            if (!locks_.back().clock.deserialize(in) ||
                !in.getI32(locks_.back().holder))
                return false;
            if (locks_.back().holder < kNoTid ||
                locks_.back().holder >=
                    static_cast<Tid>(local_.size()))
                return in.fail();
        }
        if (!policy_.restoreState(in) || !races_.deserialize(in))
            return false;
        WorkCounters work;
        const bool work_ok = legacy ? work.deserializeLegacy(in)
                                    : work.deserialize(in);
        if (!work_ok)
            return false;
        if (cfg_.counters)
            *cfg_.counters = work;
        return true;
    }
    /** @} */

    /** Direct read access to a thread's clock by *external* id. */
    const ClockT &
    threadClock(Tid t) const
    {
        TC_CHECK(t >= 0 &&
                     static_cast<std::size_t>(t) < local_.size(),
                 "unknown thread");
        const std::size_t slot = slotIndex(t);
        TC_CHECK(slot < threads_.size(),
                 "thread has no clock yet (declared but never ran)");
        return threads_[slot];
    }

    /** Current vector time of a thread (its view of the world). */
    std::vector<Clk>
    viewOf(Tid t) const
    {
        return threadClock(t).toVector(local_.size());
    }

  private:
    struct LockState
    {
        ClockT clock;
        Tid holder = kNoTid;
    };

    /** First u64 of the lifecycle-aware (v2) saveState layout. Any
     * value ≥ 2^63 is unreachable as an event count, so a blob
     * starting with it cannot be a pre-lifecycle state (whose first
     * u64 was eventsProcessed). Low bytes spell "2SCT". */
    static constexpr std::uint64_t kStateMarker =
        0xFFFFFFFF54435332ull;
    static constexpr std::uint32_t kStateVersion = 2;
    /** First u64 of a sharded consumer's state ("TCSHARD1"), as
     * written by releases with --shard-analysis. */
    static constexpr std::uint64_t kShardedStateMarker =
        0x5443534841524431ull;

    /** Thread protocol states (lifeState_, external-indexed), as
     * Trace::validate() tracks them. A tcreated thread runs kLive →
     * kJoined (by tjoin or a plain join) → kRetired. Any other
     * thread is kNone, plus the kForked and kJoinedPlain flags once
     * a plain fork or join names it. */
    static constexpr std::uint8_t kNone = 0;
    static constexpr std::uint8_t kLive = 1;
    static constexpr std::uint8_t kJoined = 2;
    static constexpr std::uint8_t kRetired = 3;
    static constexpr std::uint8_t kForked = 4;
    static constexpr std::uint8_t kJoinedPlain = 8;

    /** Created by tcreate (and perhaps joined or retired since). */
    static bool
    managed(std::uint8_t state)
    {
        return state >= kLive && state <= kRetired;
    }

    /** Joined by tjoin or a plain join: it may not act again. */
    static bool
    joined(std::uint8_t state)
    {
        return state == kJoined || state == kRetired ||
               (state & kJoinedPlain) != 0;
    }

    std::uint8_t
    lifeState(Tid t) const
    {
        return lifeState_[static_cast<std::size_t>(t)];
    }

    /** threads_ index of external thread @p t: the id-map slot when
     * the map is active, the id itself otherwise. */
    std::size_t
    slotIndex(Tid t) const
    {
        if constexpr (kUsesIdMap) {
            if (idMap_.active()) {
                const Tid s = idMap_.lookup(t).slot;
                TC_CHECK(s != kNoTid, "unmapped thread id");
                return static_cast<std::size_t>(s);
            }
        }
        return static_cast<std::size_t>(t);
    }

    /** Width of materialized timestamps handed to onTimestamp: the
     * declared thread count in batch/stream runs, else whatever has
     * been seen. */
    std::size_t
    timestampWidth() const
    {
        return declaredThreads_ > local_.size() ? declaredThreads_
                                                : local_.size();
    }

    /** Drop per-run state so run() can be called repeatedly on one
     * driver; the scratch arena is retained. */
    void
    resetState()
    {
        threads_.clear();
        local_.clear();
        lifeState_.clear();
        seen_.clear();
        extSeen_ = 0;
        idMap_ = ThreadIdMap{};
        locks_.clear();
        policy_.reset();
        races_ = RaceSummary(0, cfg_.maxReports);
        eventsProcessed_ = 0;
        declaredThreads_ = 0;
    }

    /** Pre-size the id spaces a header declares (batch/stream
     * runs); streams may still exceed these and grow on demand. */
    void
    reserve(const SourceInfo &si)
    {
        declaredThreads_ = static_cast<std::size_t>(si.threads);
        const auto k = static_cast<std::size_t>(si.threads);
        if (!si.lifecycle) {
            // Static membership: every declared id will act, so
            // build the bank upfront, each clock pre-sized to the
            // full width (the measured batch configuration).
            threads_.reserve(k);
            for (std::size_t t = 0; t < k; t++) {
                threads_.emplace_back(static_cast<Tid>(t), k);
                detail::configureClock(threads_.back(), cfg_,
                                       &arena_);
            }
        }
        // Dynamic membership: `k` counts logical ids over the whole
        // execution, not live threads — an eager bank would be
        // O(k²) bytes. Clocks build lazily (ensureSlotClock) and
        // stay bounded by the live set once slots recycle; only the
        // cheap external-indexed metadata below is eager.
        local_.assign(k, 0);
        lifeState_.assign(k, kNone);
        seen_.assign(k, 0);
        locks_.resize(static_cast<std::size_t>(si.locks));
        for (LockState &l : locks_)
            detail::configureClock(l.clock, cfg_, &arena_);
        policy_.reserveVars(si.vars);
        races_.growVars(si.vars);
    }

    /** Grow the externally indexed per-thread state to cover @p t. */
    void
    growExternal(Tid t)
    {
        while (local_.size() <= static_cast<std::size_t>(t)) {
            local_.push_back(0);
            lifeState_.push_back(kNone);
            seen_.push_back(0);
        }
    }

    /** Grow the clock bank to cover internal slot @p slot. While the
     * id map is inactive slots equal external ids, so intermediate
     * clocks are valid thread clocks for those ids; with an active
     * map fresh slots are handed out densely and this adds exactly
     * one clock. */
    void
    ensureSlotClock(Tid slot)
    {
        while (threads_.size() <= static_cast<std::size_t>(slot)) {
            threads_.emplace_back(
                static_cast<Tid>(threads_.size()),
                static_cast<std::size_t>(slot) + 1);
            detail::configureClock(threads_.back(), cfg_, &arena_);
        }
    }

    void
    ensureThread(Tid t)
    {
        TC_CHECK(t >= 0, "negative thread id");
        growExternal(t);
        // Mark the id met: if the id map activates later, exactly
        // these ids keep their identity slots (their clock contents
        // are indexed by external id), while declared-but-never-met
        // ids stay unmapped and remain legal tcreate targets.
        seen_[static_cast<std::size_t>(t)] = 1;
        if (static_cast<std::size_t>(t) + 1 > extSeen_)
            extSeen_ = static_cast<std::size_t>(t) + 1;
        if constexpr (kUsesIdMap)
            ensureSlotClock(idMap_.ensureExt(t));
        else
            ensureSlotClock(t);
    }

    /**
     * Prologue of tcreate event @p e (number @p index): check the
     * protocol, then assign the child its slot — recycling a retired
     * one when the creating thread covers the previous occupant's
     * final clock — and reset its clock to the occupancy bias. Runs
     * before any reference into threads_ is taken (slot assignment
     * may grow the bank).
     */
    void
    prepareCreate(std::size_t index, const Event &e)
    {
        const Tid parent = e.tid;
        const Tid child = e.targetTid();
        TC_CHECK(child >= 0, "negative thread id");
        if (child == parent)
            throwThreadRule(index, ThreadRule::SelfTarget, e);
        growExternal(child);
        if (local_[static_cast<std::size_t>(child)] != 0)
            throwThreadRule(index, ThreadRule::TargetStarted, e);
        if (lifeState(child) != kNone)
            throwThreadRule(index, ThreadRule::CreatedTwice, e);
        if constexpr (kUsesIdMap) {
            // First lifecycle event: leave identity mode. Only ids
            // actually met keep identity slots (their clock
            // contents stay valid); declared-but-never-met ids stay
            // unmapped — local_ may be pre-sized far beyond what
            // has run, and mapping those ids here would make them
            // illegal create targets.
            if (!idMap_.active())
                idMap_.activate(extSeen_, seen_.data());
            ClockT &pc = threads_[slotIndex(parent)];
            const Tid slot = idMap_.createExt(
                child, [&pc](Tid s, Clk base) {
                    return pc.rawGet(s) >= base;
                });
            const Clk bias = idMap_.lookup(child).bias;
            ensureSlotClock(slot);
            threads_[static_cast<std::size_t>(slot)].resetToRoot(
                slot, bias);
        } else {
            ensureSlotClock(child);
        }
        lifeState_[static_cast<std::size_t>(child)] = kLive;
    }

    void
    ensureLock(LockId l)
    {
        TC_CHECK(l >= 0, "negative lock id");
        while (locks_.size() <= static_cast<std::size_t>(l)) {
            locks_.emplace_back();
            detail::configureClock(locks_.back().clock, cfg_,
                                   &arena_);
        }
    }

    void
    ensureVar(VarId x)
    {
        TC_CHECK(x >= 0, "negative variable id");
        policy_.ensureVar(x);
        races_.growVars(x + 1);
    }

    EngineConfig cfg_;
    /** Traversal scratch shared by all of this driver's clocks;
     * declared before them so it outlives every pointer. */
    ScratchArena arena_;
    /** External-id compaction map; cfg_.idMap points here so every
     * clock the driver configures shares it. Identity (inactive)
     * until the first tcreate. */
    ThreadIdMap idMap_;
    /** Clock bank, indexed by internal slot (== external id until
     * the id map activates). */
    std::vector<ClockT> threads_;
    /** Local times by external id. */
    std::vector<Clk> local_;
    /** Lifecycle protocol state by external id. */
    std::vector<std::uint8_t> lifeState_;
    /** 1 for every external id that has been met by feed() (acted,
     * or was a fork/join/tjoin/tretire target) — the ids whose
     * clock contents pin identity slots at id-map activation.
     * tcreate children are deliberately *not* marked here before
     * their create. */
    std::vector<std::uint8_t> seen_;
    /** max met external id + 1 — the activation width. */
    std::size_t extSeen_ = 0;
    std::vector<LockState> locks_;
    Policy policy_;
    RaceSummary races_;
    std::uint64_t eventsProcessed_ = 0;
    std::size_t declaredThreads_ = 0;
};

} // namespace tc

#endif // TC_ANALYSIS_ANALYSIS_DRIVER_HH
