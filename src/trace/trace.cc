#include "trace/trace.hh"

#include <algorithm>

#include "support/assert.hh"
#include "support/strings.hh"

namespace tc {

namespace {

/** The checkpoint encoding of TraceValidator::savedThread(). */
constexpr std::uint8_t kSavedCreated = 1;
constexpr std::uint8_t kSavedJoined = 2;
constexpr std::uint8_t kSavedRetired = 3;
constexpr std::uint8_t kSavedForked = 4;
constexpr std::uint8_t kSavedJoinedPlain = 8;

/** "<what> N out of range" when @p e names an id outside @p t's
 * declared widths, else "". */
std::string
rangeError(const Event &e, const Trace &t)
{
    if (e.tid < 0 || e.tid >= t.numThreads())
        return strFormat("thread id %d out of range", e.tid);
    switch (e.op) {
      case OpType::Read:
      case OpType::Write:
        if (e.var() < 0 || e.var() >= t.numVars())
            return strFormat("variable id %d out of range", e.var());
        return {};
      case OpType::Acquire:
      case OpType::Release:
        if (e.lock() < 0 || e.lock() >= t.numLocks())
            return strFormat("lock id %d out of range", e.lock());
        return {};
      default:
        if (e.targetTid() < 0 || e.targetTid() >= t.numThreads())
            return strFormat("%s target %d out of range",
                             opName(e.op), e.targetTid());
        return {};
    }
}

} // namespace

void
TraceValidator::growThreads(Tid t)
{
    TC_CHECK(t >= 0, "negative thread id");
    threads_.resize(static_cast<std::size_t>(t) + 1, 0);
}

void
TraceValidator::growLocks(LockId l)
{
    TC_CHECK(l >= 0, "negative lock id");
    holders_.resize(static_cast<std::size_t>(l) + 1, kNoTid);
}

void
TraceValidator::failThread(std::size_t index, Rule rule, const Event &e)
{
    const Tid child = e.targetTid();
    std::string message;
    switch (rule) {
      case Rule::ActsAfterJoin:
        message = strFormat("thread %d acts after being joined", e.tid);
        break;
      case Rule::SelfTarget:
        message = strFormat("thread %ss itself", opName(e.op));
        break;
      case Rule::TargetStarted:
        message = strFormat("%s target %d already has events",
                            opName(e.op), child);
        break;
      case Rule::ForkedTwice:
        message = strFormat("thread %d forked twice", child);
        break;
      case Rule::ForkOfManaged:
        message =
            strFormat("fork target %d is lifecycle-managed", child);
        break;
      case Rule::CreatedTwice:
        message = strFormat("thread %d created twice", child);
        break;
      case Rule::JoinWithoutCreate:
        message =
            strFormat("tjoin of thread %d without tcreate", child);
        break;
      case Rule::JoinedTwice:
        message = strFormat("thread %d joined twice", child);
        break;
      case Rule::RetireWithoutJoin:
        message =
            strFormat("tretire of thread %d without tjoin", child);
        break;
      case Rule::RetiredTwice:
        message = strFormat("thread %d retired twice", child);
        break;
    }
    throw TraceInputError(index, message);
}

void
TraceValidator::failLockHeld(std::size_t index, LockId lock, Tid holder)
{
    throw TraceInputError(
        index, strFormat("lock %d acquired while held by thread %d",
                         lock, holder));
}

void
TraceValidator::failLockNotHeld(std::size_t index, LockId lock,
                                Tid releaser, Tid holder)
{
    throw TraceInputError(
        index, strFormat("lock %d released by thread %d but held by %d",
                         lock, releaser, holder));
}

std::uint8_t
TraceValidator::savedThread(Tid t) const
{
    if (static_cast<std::size_t>(t) >= threads_.size())
        return 0;
    const std::uint8_t u = threads_[static_cast<std::size_t>(t)];
    if (u & kCreated) {
        return (u & kRetired)  ? kSavedRetired
               : (u & kJoined) ? kSavedJoined
                               : kSavedCreated;
    }
    return ((u & kForked) ? kSavedForked : 0) |
           ((u & kJoined) ? kSavedJoinedPlain : 0);
}

bool
TraceValidator::restoreThread(Tid t, std::uint8_t saved, bool started)
{
    std::uint8_t u = 0;
    switch (saved) {
      case kSavedCreated: u = kCreated; break;
      case kSavedJoined: u = kCreated | kJoined; break;
      case kSavedRetired: u = kCreated | kJoined | kRetired; break;
      default:
        if (saved & ~(kSavedForked | kSavedJoinedPlain))
            return false;
        u = ((saved & kSavedForked) ? kForked : 0) |
            ((saved & kSavedJoinedPlain) ? kJoined : 0);
        break;
    }
    thread(t) = started ? u | kStarted : u;
    return true;
}

const char *
opName(OpType op)
{
    switch (op) {
      case OpType::Read: return "r";
      case OpType::Write: return "w";
      case OpType::Acquire: return "acq";
      case OpType::Release: return "rel";
      case OpType::Fork: return "fork";
      case OpType::Join: return "join";
      case OpType::ThreadCreate: return "tcreate";
      case OpType::ThreadJoin: return "tjoin";
      case OpType::ThreadRetire: return "tretire";
    }
    return "?";
}

std::string
Event::toString() const
{
    const char prefix =
        isAccess() ? 'x' : (isAcquire() || isRelease()) ? 'l' : 't';
    return strFormat("t%d:%s(%c%u)", tid, opName(op), prefix, target);
}

Trace::Trace(Tid num_threads, LockId num_locks, VarId num_vars)
    : numThreads_(num_threads), numLocks_(num_locks),
      numVars_(num_vars)
{
    TC_CHECK(num_threads >= 0 && num_locks >= 0 && num_vars >= 0,
             "id space sizes must be non-negative");
}

void
Trace::push(const Event &e)
{
    append(&e, 1);
}

void
Trace::append(const Event *events, std::size_t n)
{
    for (std::size_t i = 0; i < n; i++) {
        const Event &e = events[i];
        // Every id an event names is one the readers accept, so the
        // id spaces below (largest id + 1) fit the signed id types.
        TC_CHECK(e.tid >= 0 &&
                     static_cast<std::uint32_t>(e.tid) <= kMaxEventId &&
                     e.target <= kMaxEventId,
                 "event id out of range (0 .. 2^31-2)");
        numThreads_ = std::max(numThreads_, e.tid + 1);
        switch (e.op) {
          case OpType::Read:
          case OpType::Write:
            numVars_ = std::max(numVars_, e.var() + 1);
            break;
          case OpType::Acquire:
          case OpType::Release:
            numLocks_ = std::max(numLocks_, e.lock() + 1);
            break;
          case OpType::Fork:
          case OpType::Join:
          case OpType::ThreadCreate:
          case OpType::ThreadJoin:
          case OpType::ThreadRetire:
            numThreads_ = std::max(numThreads_, e.targetTid() + 1);
            break;
        }
        hasLifecycle_ = hasLifecycle_ || e.isLifecycle();
    }
    events_.insert(events_.end(), events, events + n);
}

ValidationResult
Trace::validate() const
{
    TraceValidator rules;
    try {
        for (std::size_t i = 0; i < events_.size(); i++) {
            const std::string bad = rangeError(events_[i], *this);
            if (!bad.empty())
                return ValidationResult::failure(i, bad);
            rules.check(i, events_[i]);
        }
    } catch (const TraceInputError &err) {
        return ValidationResult::failure(err.eventIndex, err.what());
    }
    return {};
}

std::vector<Clk>
Trace::localTimes() const
{
    std::vector<Clk> times(events_.size());
    std::vector<Clk> counters(static_cast<std::size_t>(numThreads_),
                              0);
    for (std::size_t i = 0; i < events_.size(); i++)
        times[i] = ++counters[static_cast<std::size_t>(events_[i].tid)];
    return times;
}

} // namespace tc
