#include "trace/fault_injection.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "core/serial.hh"
#include "support/strings.hh"

namespace tc {

const char *
faultActionName(FaultAction action)
{
    switch (action) {
      case FaultAction::None: return "none";
      case FaultAction::ShortRead: return "short-read";
      case FaultAction::Eio: return "eio";
      case FaultAction::TransientEio: return "transient-eio";
      case FaultAction::BitFlip: return "bit-flip";
      case FaultAction::TornWrite: return "torn-write";
      case FaultAction::Crash: return "crash";
    }
    return "?";
}

namespace {

bool
parseAction(const std::string &text, FaultAction &out)
{
    for (FaultAction a :
         {FaultAction::ShortRead, FaultAction::Eio,
          FaultAction::TransientEio, FaultAction::BitFlip,
          FaultAction::TornWrite, FaultAction::Crash}) {
        if (text == faultActionName(a)) {
            out = a;
            return true;
        }
    }
    return false;
}

bool
parseCount(const std::string &text, std::uint64_t &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const unsigned long long v =
        std::strtoull(text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || v == 0)
        return false;
    out = v;
    return true;
}

/** splitmix64: the per-hit lane mix (deterministic, seedable). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace

FailpointRegistry &
FailpointRegistry::instance()
{
    static FailpointRegistry registry;
    return registry;
}

bool
FailpointRegistry::arm(const std::string &spec, std::uint64_t seed,
                       std::string *error)
{
    std::unordered_map<std::string, Arm> parsed;
    for (const std::string &raw : splitString(spec, ';')) {
        const std::string entry = trimString(raw);
        if (entry.empty())
            continue;
        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos || eq == 0) {
            if (error) {
                *error = strFormat(
                    "failpoint '%s': expected site=action[@hit]",
                    entry.c_str());
            }
            return false;
        }
        const std::string site = trimString(entry.substr(0, eq));
        std::string rhs = trimString(entry.substr(eq + 1));
        Arm arm;
        const std::size_t at = rhs.find('@');
        if (at != std::string::npos) {
            std::string trigger = rhs.substr(at + 1);
            rhs = rhs.substr(0, at);
            const std::size_t star = trigger.find('*');
            std::string count;
            if (star != std::string::npos) {
                count = trigger.substr(star + 1);
                trigger = trigger.substr(0, star);
            }
            // A '*' with nothing after it ("@2*") is malformed,
            // not "count defaulted": parseCount rejects empty.
            if (!parseCount(trigger, arm.firstHit) ||
                (star != std::string::npos &&
                 !parseCount(count, arm.count))) {
                if (error) {
                    *error = strFormat(
                        "failpoint '%s': bad trigger (want "
                        "@hit or @hit*count)",
                        entry.c_str());
                }
                return false;
            }
        }
        if (!parseAction(rhs, arm.action)) {
            if (error) {
                *error = strFormat(
                    "failpoint '%s': unknown action '%s'",
                    entry.c_str(), rhs.c_str());
            }
            return false;
        }
        parsed[site] = arm;
    }

    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[site, arm] : parsed)
        arms_[site] = arm;
    seed_ = seed;
    armed_.store(!arms_.empty(), std::memory_order_relaxed);
    return true;
}

bool
FailpointRegistry::armFromEnv(std::string *error)
{
    const char *spec = std::getenv("TC_FAILPOINTS");
    if (spec == nullptr || *spec == '\0')
        return true;
    std::uint64_t seed = 0;
    if (const char *seed_text = std::getenv("TC_FAULT_SEED")) {
        char *end = nullptr;
        seed = std::strtoull(seed_text, &end, 10);
    }
    return arm(spec, seed, error);
}

void
FailpointRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    arms_.clear();
    hits_.clear();
    seed_ = 0;
    armed_.store(false, std::memory_order_relaxed);
}

FaultDecision
FailpointRegistry::evaluate(const char *site)
{
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t hit = ++hits_[site];
    const auto it = arms_.find(site);
    if (it == arms_.end())
        return {};
    const Arm &arm = it->second;
    if (hit < arm.firstHit || hit >= arm.firstHit + arm.count)
        return {};
    FaultDecision decision;
    decision.action = arm.action;
    decision.lane = mix64(seed_ ^ mix64(hit) ^
                          crc32(site, std::strlen(site)));
    return decision;
}

std::uint64_t
FailpointRegistry::hits(const std::string &site) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = hits_.find(site);
    return it == hits_.end() ? 0 : it->second;
}

void
faultCrash(const char *site)
{
    // stderr is unbuffered enough for the sweeps to attribute the
    // crash; _Exit skips destructors and atexit exactly like a
    // kill mid-operation.
    std::fprintf(stderr, "fault-injection: crash at %s\n", site);
    std::_Exit(kFaultCrashExitCode);
}

bool
retryWithBackoff(int attempts, const std::function<bool()> &op)
{
    for (int attempt = 0; attempt < attempts; attempt++) {
        if (op())
            return true;
        if (attempt + 1 < attempts) {
            const auto delay = std::chrono::milliseconds(
                std::min<long>(50, 1L << std::min(attempt, 6)));
            std::this_thread::sleep_for(delay);
        }
    }
    return false;
}

namespace {

/** The "source.next" decorator (see makeFaultInjectingSource). */
class FaultInjectingEventSource final : public EventSource
{
  public:
    explicit FaultInjectingEventSource(
        std::unique_ptr<EventSource> inner)
        : inner_(std::move(inner))
    {
        if (inner_->failed()) {
            fail(inner_->errorLine(), inner_->error(),
                 inner_->errorKind());
        }
    }

    SourceInfo info() const override { return inner_->info(); }

    /** One failpoint evaluation per event pulled, so hit numbers
     * count events whatever the caller's batch size. */
    std::size_t
    read(Event *out, std::size_t max) override
    {
        std::size_t n = 0;
        while (n < max && nextFaulted(out[n]))
            n++;
        return n;
    }

    bool
    rewind() override
    {
        if (!inner_->rewind())
            return false;
        clearError();
        return true;
    }

    bool
    seekToSequence(std::uint64_t n) override
    {
        if (!inner_->seekToSequence(n))
            return false;
        clearError();
        return true;
    }

  private:
    bool
    nextFaulted(Event &out)
    {
        if (failed())
            return false;
        const FaultDecision fd = failpoint("source.next");
        switch (fd.action) {
          case FaultAction::None:
            break;
          case FaultAction::Crash:
            faultCrash("source.next");
          case FaultAction::Eio:
          case FaultAction::ShortRead:
            // A short read at stream granularity: the events after
            // the cut never arrive, and the reader learns why.
            fail(0, "injected I/O error (source.next)",
                 SourceErrorKind::Io);
            return false;
          case FaultAction::TransientEio: {
            // The bounded-retry recovery policy: the first
            // attempts fail, then the operation goes through and
            // the stream continues undisturbed.
            int failures_left = 2;
            if (!retryWithBackoff(4, [&] {
                    return failures_left-- <= 0;
                })) {
                fail(0,
                     "injected transient I/O error exhausted "
                     "retries (source.next)",
                     SourceErrorKind::Io);
                return false;
            }
            break;
          }
          case FaultAction::BitFlip:
          case FaultAction::TornWrite:
            // Deliver the event with one bit flipped (torn write
            // degrades to the same corruption on the read side).
            if (!pull(out))
                return false;
            flipBit(out, fd.lane);
            return true;
        }
        return pull(out);
    }

    bool
    pull(Event &out)
    {
        if (inner_->next(out))
            return true;
        if (inner_->failed()) {
            fail(inner_->errorLine(), inner_->error(),
                 inner_->errorKind());
        }
        return false;
    }

    /** Flip one bit of the raw event record, deterministically
     * chosen from the failpoint lane. */
    static void
    flipBit(Event &e, std::uint64_t lane)
    {
        // Only the meaningful bytes (tid, target, op) — flipping
        // struct padding would be an injected fault that did
        // nothing.
        constexpr std::size_t kPayloadBytes =
            sizeof(Tid) + sizeof(std::uint32_t) + sizeof(OpType);
        unsigned char bytes[sizeof(Event)];
        std::memcpy(bytes, &e, sizeof(Event));
        const std::size_t bit =
            static_cast<std::size_t>(lane % (kPayloadBytes * 8));
        bytes[bit / 8] ^= static_cast<unsigned char>(
            1u << (bit % 8));
        std::memcpy(&e, bytes, sizeof(Event));
    }

    std::unique_ptr<EventSource> inner_;
};

} // namespace

std::unique_ptr<EventSource>
makeFaultInjectingSource(std::unique_ptr<EventSource> inner)
{
    return std::make_unique<FaultInjectingEventSource>(
        std::move(inner));
}

} // namespace tc
