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

    /** Does ClockT recycle thread slots through the arena's
     * ThreadIdMap? True for clocks that can restart a slot for a new
     * occupant (TreeClock::resetToRoot); flat clocks stay
     * external-indexed and never activate the map. */
    static constexpr bool kUsesIdMap =
        requires(ClockT c, Tid t, Clk s) { c.resetToRoot(t, s); };

    explicit AnalysisDriver(EngineConfig cfg = {})
        : cfg_(std::move(cfg)), races_(0, cfg_.maxReports)
    {
        arena_.counters = cfg_.counters;
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
     * grows on demand. Every event first passes the lock and thread
     * rules of TraceValidator: a broken one (acquiring a held lock,
     * a second fork of one thread, a thread acting after its join,
     * ...) throws TraceInputError with the event's index and the
     * message Trace::validate() gives, and the run is over
     * (begin() again before reuse).
     */
    void
    feed(const Event &e)
    {
        rules_.check(static_cast<std::size_t>(eventsProcessed_), e);
        // Grow all id spaces before taking references: emplacing a
        // fork/join/lifecycle target would otherwise reallocate
        // threads_ from under `ct`.
        ensureThread(e.tid);
        if (e.isFork() || e.isJoin() || e.isThreadJoin() ||
            e.isThreadRetire())
            ensureThread(e.targetTid());
        if (e.isThreadCreate())
            prepareCreate(e);
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
          case OpType::Acquire:
            detail::joinClock(ct, lock(e.lock()), cfg_);
            break;
          case OpType::Release: {
            ClockT &lc = lock(e.lock());
            lc.monotoneCopy(ct);
            if (cfg_.deepChecks)
                detail::deepCheck(lc);
            break;
          }
          case OpType::Fork: {
            ClockT &cc = threads_[slotIndex(e.targetTid())];
            detail::joinClock(cc, ct, cfg_);
            if (cfg_.deepChecks)
                detail::deepCheck(cc);
            break;
          }
          case OpType::Join:
            detail::joinClock(ct, threads_[slotIndex(e.targetTid())],
                              cfg_);
            break;
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
          case OpType::ThreadJoin:
            detail::joinClock(ct, threads_[slotIndex(e.targetTid())],
                              cfg_);
            break;
          case OpType::ThreadRetire: {
            const Tid child = e.targetTid();
            if constexpr (kUsesIdMap) {
                // The slot becomes reusable at the thread's final
                // raw value; its clock object is recycled in place
                // by a later create's resetToRoot.
                arena_.idMap.retireExt(
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
    }

    /**
     * Batch mode over a materialized trace: reserve the declared id
     * spaces, feed every event.
     */
    EngineResult
    run(const Trace &trace)
    {
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
     */
    EngineResult
    run(EventSource &source)
    {
        begin(source.info());
        // Pull whole windows: one virtual call per window, and
        // zero-copy where the source can manage it (a view into a
        // materialized trace — see EventSource::readWindow).
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
        // The rules' thread states: one byte per external id, so
        // padded to the width of local_.
        std::vector<std::uint8_t> saved(local_.size());
        for (std::size_t t = 0; t < saved.size(); t++)
            saved[t] = rules_.savedThread(static_cast<Tid>(t));
        out.putVec(saved);
        out.putVec(seen_);
        arena_.idMap.serialize(out);
        out.putU64(threads_.size());
        for (const ClockT &clock : threads_)
            clock.serialize(out);
        out.putU64(locks_.size());
        for (std::size_t l = 0; l < locks_.size(); l++) {
            locks_[l].serialize(out);
            out.putI32(rules_.holder(static_cast<LockId>(l)));
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
        // The restored clocks credit their bytes to the resident
        // gauge as they load; start it from nothing so it holds
        // exactly those (begin() may have credited an eager bank).
        if (cfg_.counters)
            cfg_.counters->clockBytes = 0;
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
        std::vector<std::uint8_t> saved;
        if (legacy) {
            // Pre-lifecycle blobs carry no seen bits; those runs
            // treated every id below the declared width as met,
            // which is what an activation after resume must mirror.
            saved.assign(local_.size(), 0);
            seen_.assign(local_.size(), 1);
        } else {
            if (!in.getVec(saved) || !in.getVec(seen_) ||
                !arena_.idMap.deserialize(in))
                return false;
            if (saved.size() != local_.size() ||
                seen_.size() != local_.size())
                return in.fail();
            // The map grows per met/created id, so it can trail the
            // (possibly pre-sized) external width — never exceed it.
            if (arena_.idMap.active() &&
                arena_.idMap.extCount() > local_.size())
                return in.fail();
        }
        // A thread has events exactly when its local time moved.
        for (std::size_t t = 0; t < saved.size(); t++) {
            if (!rules_.restoreThread(static_cast<Tid>(t), saved[t],
                                      local_[t] != 0))
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
        if (arena_.idMap.active()
                ? thread_count < arena_.idMap.slotCount()
                : thread_count > local_.size())
            return in.fail();
        threads_.reserve(static_cast<std::size_t>(thread_count));
        for (std::uint64_t t = 0; t < thread_count; t++) {
            threads_.emplace_back();
            threads_.back().setArena(&arena_);
            if (!threads_.back().deserialize(in))
                return false;
        }
        if (!in.getU64(lock_count) || lock_count > in.remaining())
            return in.fail();
        for (std::uint64_t l = 0; l < lock_count; l++) {
            locks_.emplace_back();
            locks_.back().setArena(&arena_);
            Tid holder = kNoTid;
            if (!locks_.back().deserialize(in) || !in.getI32(holder))
                return false;
            if (holder < kNoTid ||
                holder >= static_cast<Tid>(local_.size()))
                return in.fail();
            rules_.restoreHolder(static_cast<LockId>(l), holder);
        }
        if (!policy_.restoreState(in) || !races_.deserialize(in))
            return false;
        WorkCounters work;
        const bool work_ok = legacy ? work.deserializeLegacy(in)
                                    : work.deserialize(in);
        if (!work_ok)
            return false;
        if (cfg_.counters) {
            // The gauge the restored clocks credited is the resident
            // figure. The snapshot's peak still holds when the
            // snapshot counted the same bytes; a legacy blob (no
            // gauge) or another clock layout restarts it there.
            const std::uint64_t resident = cfg_.counters->clockBytes;
            if (work.clockBytes != resident)
                work.clockBytesPeak = resident;
            work.clockBytes = resident;
            *cfg_.counters = work;
        }
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

    /** threads_ index of external thread @p t: the id-map slot when
     * the map is active, the id itself otherwise. */
    std::size_t
    slotIndex(Tid t) const
    {
        if constexpr (kUsesIdMap) {
            if (arena_.idMap.active()) {
                const Tid s = arena_.idMap.lookup(t).slot;
                TC_CHECK(s != kNoTid, "unmapped thread id");
                return static_cast<std::size_t>(s);
            }
        }
        return static_cast<std::size_t>(t);
    }

    /** Drop per-run state so run() can be called repeatedly on one
     * driver; the scratch arena is retained. */
    void
    resetState()
    {
        threads_.clear();
        local_.clear();
        rules_.clear();
        seen_.clear();
        extSeen_ = 0;
        arena_.idMap = ThreadIdMap{};
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
                threads_.back().setArena(&arena_);
            }
        }
        // Dynamic membership: `k` counts logical ids over the whole
        // execution, not live threads — an eager bank would be
        // O(k²) bytes. Clocks build lazily (ensureSlotClock) and
        // stay bounded by the live set once slots recycle; only the
        // cheap external-indexed metadata below is eager.
        local_.assign(k, 0);
        seen_.assign(k, 0);
        locks_.resize(static_cast<std::size_t>(si.locks));
        for (ClockT &l : locks_)
            l.setArena(&arena_);
        policy_.reserveVars(si.vars);
        races_.growVars(si.vars);
    }

    /** Grow the externally indexed per-thread state to cover @p t. */
    void
    growExternal(Tid t)
    {
        while (local_.size() <= static_cast<std::size_t>(t)) {
            local_.push_back(0);
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
            threads_.back().setArena(&arena_);
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
            ensureSlotClock(arena_.idMap.ensureExt(t));
        else
            ensureSlotClock(t);
    }

    /**
     * Prologue of tcreate event @p e: assign the child its slot —
     * recycling a retired one when the creating thread covers the
     * previous occupant's final clock — and reset its clock to the
     * occupancy bias. Runs before any reference into threads_ is
     * taken (slot assignment may grow the bank).
     */
    void
    prepareCreate(const Event &e)
    {
        const Tid parent = e.tid;
        const Tid child = e.targetTid();
        growExternal(child);
        if constexpr (kUsesIdMap) {
            // First lifecycle event: leave identity mode. Only ids
            // actually met keep identity slots (their clock
            // contents stay valid); declared-but-never-met ids stay
            // unmapped — local_ may be pre-sized far beyond what
            // has run, and mapping those ids here would make them
            // illegal create targets.
            ThreadIdMap &map = arena_.idMap;
            if (!map.active())
                map.activate(extSeen_, seen_.data());
            ClockT &pc = threads_[slotIndex(parent)];
            const Tid slot = map.createExt(
                child, [&pc](Tid s, Clk base) {
                    return pc.rawGet(s) >= base;
                });
            const Clk bias = map.lookup(child).bias;
            ensureSlotClock(slot);
            threads_[static_cast<std::size_t>(slot)].resetToRoot(
                slot, bias);
        } else {
            ensureSlotClock(child);
        }
    }

    /** The clock of lock @p l, growing the lock space to cover it. */
    ClockT &
    lock(LockId l)
    {
        while (locks_.size() <= static_cast<std::size_t>(l)) {
            locks_.emplace_back();
            locks_.back().setArena(&arena_);
        }
        return locks_[static_cast<std::size_t>(l)];
    }

    void
    ensureVar(VarId x)
    {
        TC_CHECK(x >= 0, "negative variable id");
        policy_.ensureVar(x);
        races_.growVars(x + 1);
    }

    EngineConfig cfg_;
    /** The clock context of every clock made here: walk scratch,
     * frozen copies, cfg_.counters and the external-id map
     * (identity, inactive, until the first tcreate). Declared before
     * the clocks so it outlives every pointer into it. */
    ScratchArena arena_;
    /** Clock bank, indexed by internal slot (== external id until
     * the id map activates). */
    std::vector<ClockT> threads_;
    /** Local times by external id. */
    std::vector<Clk> local_;
    /** The lock and thread rules every event passes first. */
    TraceValidator rules_;
    /** 1 for every external id that has been met by feed() (acted,
     * or was a fork/join/tjoin/tretire target) — the ids whose
     * clock contents pin identity slots at id-map activation.
     * tcreate children are deliberately *not* marked here before
     * their create. */
    std::vector<std::uint8_t> seen_;
    /** max met external id + 1 — the activation width. */
    std::size_t extSeen_ = 0;
    /** Lock clocks L_l. */
    std::vector<ClockT> locks_;
    Policy policy_;
    RaceSummary races_;
    std::uint64_t eventsProcessed_ = 0;
    std::size_t declaredThreads_ = 0;
};

} // namespace tc

#endif // TC_ANALYSIS_ANALYSIS_DRIVER_HH
