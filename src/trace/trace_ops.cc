#include "trace/trace_ops.hh"

#include <algorithm>

#include "support/assert.hh"

namespace tc {

Trace
sliceByVars(const Trace &trace, const std::vector<VarId> &vars)
{
    std::vector<bool> keep(
        static_cast<std::size_t>(trace.numVars()), false);
    for (const VarId x : vars) {
        TC_CHECK(x >= 0 && x < trace.numVars(),
                 "sliceByVars: variable id out of range");
        keep[static_cast<std::size_t>(x)] = true;
    }

    Trace out(trace.numThreads(), trace.numLocks(),
              trace.numVars());
    for (const Event &e : trace) {
        if (!e.isAccess() ||
            keep[static_cast<std::size_t>(e.var())]) {
            out.push(e);
        }
    }
    return out;
}

Trace
projectThreads(const Trace &trace, const std::vector<Tid> &tids)
{
    std::vector<bool> keep(
        static_cast<std::size_t>(trace.numThreads()), false);
    for (const Tid t : tids) {
        TC_CHECK(t >= 0 && t < trace.numThreads(),
                 "projectThreads: thread id out of range");
        keep[static_cast<std::size_t>(t)] = true;
    }

    Trace out(trace.numThreads(), trace.numLocks(),
              trace.numVars());
    for (const Event &e : trace) {
        if (!keep[static_cast<std::size_t>(e.tid)])
            continue;
        if ((e.isFork() || e.isJoin() || e.isLifecycle()) &&
            !keep[static_cast<std::size_t>(e.targetTid())]) {
            continue; // edge to a dropped thread is meaningless
        }
        out.push(e);
    }
    return out;
}

Trace
prefix(const Trace &trace, std::size_t n)
{
    Trace out(trace.numThreads(), trace.numLocks(),
              trace.numVars());
    const std::size_t limit = std::min(n, trace.size());
    out.reserve(limit);
    for (std::size_t i = 0; i < limit; i++)
        out.push(trace[i]);
    return out;
}

namespace {

/** Build old->new map over used ids; record new->old in *order. */
template <typename Id>
std::vector<Id>
compactIds(const std::vector<bool> &used, std::vector<Id> *order)
{
    std::vector<Id> to_new(used.size(), Id{-1});
    Id next = 0;
    for (std::size_t i = 0; i < used.size(); i++) {
        if (used[i]) {
            to_new[i] = next++;
            if (order)
                order->push_back(static_cast<Id>(i));
        }
    }
    return to_new;
}

} // namespace

Trace
renumberDense(const Trace &trace, IdRemap *remap)
{
    std::vector<bool> thread_used(
        static_cast<std::size_t>(trace.numThreads()), false);
    std::vector<bool> lock_used(
        static_cast<std::size_t>(trace.numLocks()), false);
    std::vector<bool> var_used(
        static_cast<std::size_t>(trace.numVars()), false);
    for (const Event &e : trace) {
        thread_used[static_cast<std::size_t>(e.tid)] = true;
        switch (e.op) {
          case OpType::Read:
          case OpType::Write:
            var_used[static_cast<std::size_t>(e.var())] = true;
            break;
          case OpType::Acquire:
          case OpType::Release:
            lock_used[static_cast<std::size_t>(e.lock())] = true;
            break;
          case OpType::Fork:
          case OpType::Join:
          case OpType::ThreadCreate:
          case OpType::ThreadJoin:
          case OpType::ThreadRetire:
            thread_used[static_cast<std::size_t>(e.targetTid())] =
                true;
            break;
        }
    }

    IdRemap local;
    IdRemap *map = remap ? remap : &local;
    map->threads.clear();
    map->locks.clear();
    map->vars.clear();
    const auto thread_map = compactIds<Tid>(thread_used,
                                            &map->threads);
    const auto lock_map = compactIds<LockId>(lock_used, &map->locks);
    const auto var_map = compactIds<VarId>(var_used, &map->vars);

    Trace out(static_cast<Tid>(map->threads.size()),
              static_cast<LockId>(map->locks.size()),
              static_cast<VarId>(map->vars.size()));
    out.reserve(trace.size());
    for (const Event &e : trace) {
        const Tid t = thread_map[static_cast<std::size_t>(e.tid)];
        std::uint32_t target = e.target;
        switch (e.op) {
          case OpType::Read:
          case OpType::Write:
            target = static_cast<std::uint32_t>(
                var_map[static_cast<std::size_t>(e.var())]);
            break;
          case OpType::Acquire:
          case OpType::Release:
            target = static_cast<std::uint32_t>(
                lock_map[static_cast<std::size_t>(e.lock())]);
            break;
          case OpType::Fork:
          case OpType::Join:
          case OpType::ThreadCreate:
          case OpType::ThreadJoin:
          case OpType::ThreadRetire:
            target = static_cast<std::uint32_t>(
                thread_map[static_cast<std::size_t>(
                    e.targetTid())]);
            break;
        }
        out.push(Event(t, e.op, target));
    }
    return out;
}

} // namespace tc
