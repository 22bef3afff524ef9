/**
 * @file
 * Race records produced by the "+Analysis" phase (paper §6 Setup):
 * for each pair of conflicting events the analysis decides whether
 * they are concurrent with respect to the partial order at hand.
 */

#ifndef TC_ANALYSIS_RACE_HH
#define TC_ANALYSIS_RACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/epoch.hh"
#include "core/serial.hh"
#include "support/types.hh"

namespace tc {

/** Which access pair raced. */
enum class RaceKind : std::uint8_t
{
    WriteWrite,
    WriteRead, ///< prior write, current read
    ReadWrite, ///< prior read, current write
};

const char *raceKindName(RaceKind kind);

/**
 * One detected race: the prior and current events are identified by
 * their (tid, local time) epochs — the unique naming the paper uses.
 */
struct RacePair
{
    VarId var = 0;
    RaceKind kind = RaceKind::WriteWrite;
    Epoch prior;
    Epoch current;

    std::string toString() const;
};

/** Aggregated race results with a bounded report buffer. */
class RaceSummary
{
  public:
    RaceSummary() = default;
    RaceSummary(VarId num_vars, std::size_t max_reports)
        : racyVar_(static_cast<std::size_t>(num_vars), false),
          maxReports_(max_reports)
    {}

    /** Extend the variable space (online analyses). */
    void
    growVars(VarId num_vars)
    {
        if (racyVar_.size() < static_cast<std::size_t>(num_vars))
            racyVar_.resize(static_cast<std::size_t>(num_vars),
                            false);
    }

    void
    record(VarId var, RaceKind kind, Epoch prior, Epoch current)
    {
        total_++;
        switch (kind) {
          case RaceKind::WriteWrite: writeWrite_++; break;
          case RaceKind::WriteRead: writeRead_++; break;
          case RaceKind::ReadWrite: readWrite_++; break;
        }
        if (!racyVar_[static_cast<std::size_t>(var)]) {
            racyVar_[static_cast<std::size_t>(var)] = true;
            racyVarCount_++;
        }
        if (reports_.size() < maxReports_)
            reports_.push_back({var, kind, prior, current});
    }

    std::uint64_t total() const { return total_; }
    std::uint64_t writeWrite() const { return writeWrite_; }
    std::uint64_t writeRead() const { return writeRead_; }
    std::uint64_t readWrite() const { return readWrite_; }
    std::uint64_t racyVarCount() const { return racyVarCount_; }
    bool isVarRacy(VarId x) const
    {
        return racyVar_[static_cast<std::size_t>(x)];
    }
    const std::vector<bool> &racyVars() const { return racyVar_; }
    const std::vector<RacePair> &reports() const { return reports_; }

    /** @name Checkpoint serialization (core/serial.hh)
     * Field-wise (RacePair has padding; raw bytes would leak
     * nondeterminism into snapshots). deserialize() cross-checks
     * the per-kind totals and the racy-variable count against the
     * stored bitmap and returns false on any mismatch.
     * @{ */
    void
    serialize(ByteSink &out) const
    {
        out.putU64(total_);
        out.putU64(writeWrite_);
        out.putU64(writeRead_);
        out.putU64(readWrite_);
        out.putU64(racyVarCount_);
        out.putU64(maxReports_);
        out.putU64(racyVar_.size());
        for (std::size_t i = 0; i < racyVar_.size(); i++)
            out.putU8(racyVar_[i] ? 1 : 0);
        out.putU64(reports_.size());
        for (const RacePair &r : reports_) {
            out.putI32(r.var);
            out.putU8(static_cast<std::uint8_t>(r.kind));
            out.putI32(r.prior.tid);
            out.putU32(r.prior.clk);
            out.putI32(r.current.tid);
            out.putU32(r.current.clk);
        }
    }

    bool
    deserialize(ByteSource &in)
    {
        RaceSummary loaded;
        std::uint64_t vars = 0, report_count = 0;
        if (!in.getU64(loaded.total_) ||
            !in.getU64(loaded.writeWrite_) ||
            !in.getU64(loaded.writeRead_) ||
            !in.getU64(loaded.readWrite_) ||
            !in.getU64(loaded.racyVarCount_) ||
            !in.getU64(loaded.maxReports_) || !in.getU64(vars))
            return false;
        if (vars > in.remaining())
            return in.fail();
        loaded.racyVar_.resize(static_cast<std::size_t>(vars));
        std::uint64_t racy = 0;
        for (std::uint64_t i = 0; i < vars; i++) {
            std::uint8_t bit = 0;
            if (!in.getU8(bit))
                return false;
            if (bit > 1)
                return in.fail();
            loaded.racyVar_[static_cast<std::size_t>(i)] =
                bit != 0;
            racy += bit;
        }
        if (!in.getU64(report_count))
            return false;
        if (report_count > loaded.maxReports_ ||
            report_count > loaded.total_)
            return in.fail();
        loaded.reports_.reserve(
            static_cast<std::size_t>(report_count));
        for (std::uint64_t i = 0; i < report_count; i++) {
            RacePair r;
            std::uint8_t kind = 0;
            if (!in.getI32(r.var) || !in.getU8(kind) ||
                !in.getI32(r.prior.tid) ||
                !in.getU32(r.prior.clk) ||
                !in.getI32(r.current.tid) ||
                !in.getU32(r.current.clk))
                return false;
            if (kind >
                    static_cast<std::uint8_t>(RaceKind::ReadWrite) ||
                r.var < 0 ||
                static_cast<std::uint64_t>(r.var) >= vars)
                return in.fail();
            r.kind = static_cast<RaceKind>(kind);
            loaded.reports_.push_back(r);
        }
        if (racy != loaded.racyVarCount_ ||
            loaded.total_ != loaded.writeWrite_ +
                                 loaded.writeRead_ +
                                 loaded.readWrite_)
            return in.fail();
        *this = std::move(loaded);
        return true;
    }
    /** @} */

  private:
    std::uint64_t total_ = 0;
    std::uint64_t writeWrite_ = 0;
    std::uint64_t writeRead_ = 0;
    std::uint64_t readWrite_ = 0;
    std::uint64_t racyVarCount_ = 0;
    std::vector<bool> racyVar_;
    std::vector<RacePair> reports_;
    std::size_t maxReports_ = 0;
};

} // namespace tc

#endif // TC_ANALYSIS_RACE_HH
