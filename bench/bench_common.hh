/**
 * @file
 * Shared plumbing for the table/figure harness binaries: timed
 * engine runs dispatched over (partial order, clock, analysis
 * mode), corpus iteration and common CLI flags.
 *
 * All harnesses accept --scale (or the TC_BENCH_SCALE environment
 * variable) to grow/shrink trace sizes, and --reps for repetition
 * averaging (the paper used 3).
 */

#ifndef TC_BENCH_BENCH_COMMON_HH
#define TC_BENCH_BENCH_COMMON_HH

#include <cmath>
#include <vector>

#include "analysis/hb_engine.hh"
#include "analysis/maz_engine.hh"
#include "analysis/shb_engine.hh"
#include "core/tree_clock.hh"
#include "core/vector_clock.hh"
#include "gen/corpus.hh"
#include "support/cli.hh"
#include "support/strings.hh"
#include "support/timer.hh"
#include "trace/trace_stats.hh"

namespace tc {
namespace bench {

/** The three partial orders of the evaluation. */
enum class Po { MAZ, SHB, HB };

inline const char *
poName(Po po)
{
    switch (po) {
      case Po::MAZ: return "MAZ";
      case Po::SHB: return "SHB";
      case Po::HB: return "HB";
    }
    return "?";
}

inline std::vector<Po>
allPos()
{
    return {Po::MAZ, Po::SHB, Po::HB};
}

/** One timed engine run. */
template <template <typename> class Engine, typename ClockT>
double
timeOne(const Trace &trace, const EngineConfig &cfg)
{
    Engine<ClockT> engine(cfg);
    Timer timer;
    engine.run(trace);
    return timer.seconds();
}

/** Mean of @p reps timed runs for (po, clock, analysis). The first
 * (untimed) run warms the trace and allocator state so the VC/TC
 * comparison is not skewed by which side runs first. */
template <typename ClockT>
double
timePo(Po po, const Trace &trace, bool analysis, int reps)
{
    EngineConfig base;
    base.analysis = analysis;
    double total = 0;
    for (int r = 0; r <= reps; r++) {
        double t = 0;
        switch (po) {
          case Po::MAZ:
            t = timeOne<MazEngine, ClockT>(trace, base);
            break;
          case Po::SHB:
            t = timeOne<ShbEngine, ClockT>(trace, base);
            break;
          case Po::HB:
            t = timeOne<HbEngine, ClockT>(trace, base);
            break;
        }
        if (r > 0)
            total += t; // r == 0 is the warmup
    }
    return total / reps;
}

/** Work counters of one run for (po, clock, analysis). */
template <typename ClockT>
WorkCounters
workPo(Po po, const Trace &trace, bool analysis)
{
    WorkCounters work;
    EngineConfig cfg;
    cfg.analysis = analysis;
    cfg.counters = &work;
    switch (po) {
      case Po::MAZ: {
        MazEngine<ClockT> engine(cfg);
        engine.run(trace);
        break;
      }
      case Po::SHB: {
        ShbEngine<ClockT> engine(cfg);
        engine.run(trace);
        break;
      }
      case Po::HB: {
        HbEngine<ClockT> engine(cfg);
        engine.run(trace);
        break;
      }
    }
    return work;
}

/** Standard harness flags: --scale, --reps, --max-traces. */
inline void
addCommonFlags(ArgParser &args)
{
    args.addDouble("scale", benchScaleFromEnv(),
                   "trace size multiplier (also TC_BENCH_SCALE)");
    args.addInt("reps", 1, "timed repetitions per configuration");
    args.addInt("max-traces", 1 << 30,
                "limit the number of corpus traces");
}

/** Geometric mean, the usual aggregation for speedup ratios. */
inline double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0;
    double log_sum = 0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

/** Arithmetic mean (the paper reports plain averages). */
inline double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0;
    double total = 0;
    for (double x : xs)
        total += x;
    return total / static_cast<double>(xs.size());
}

} // namespace bench
} // namespace tc

#endif // TC_BENCH_BENCH_COMMON_HH
