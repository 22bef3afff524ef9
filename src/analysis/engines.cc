/**
 * @file
 * Explicit instantiations of the analysis engines for the two clock
 * data structures, so client code linking tc_analysis does not
 * re-instantiate them.
 */

#include "analysis/hb_engine.hh"
#include "analysis/maz_engine.hh"
#include "analysis/online_detector.hh"
#include "analysis/shb_engine.hh"
#include "core/tree_clock.hh"
#include "core/vector_clock.hh"

namespace tc {

static_assert(ClockLike<TreeClock>,
              "TreeClock must model the engine clock interface");
static_assert(ClockLike<VectorClock>,
              "VectorClock must model the engine clock interface");

// The engines are aliases of AnalysisDriver instantiations
// (OnlineRaceDetector<C> is HbEngine<C> itself), so the driver is
// what gets instantiated explicitly.
template class AnalysisDriver<TreeClock, HbPolicy>;
template class AnalysisDriver<VectorClock, HbPolicy>;
template class AnalysisDriver<TreeClock, ShbPolicy>;
template class AnalysisDriver<VectorClock, ShbPolicy>;
template class AnalysisDriver<TreeClock, MazPolicy>;
template class AnalysisDriver<VectorClock, MazPolicy>;

const char *
raceKindName(RaceKind kind)
{
    switch (kind) {
      case RaceKind::WriteWrite: return "w-w";
      case RaceKind::WriteRead: return "w-r";
      case RaceKind::ReadWrite: return "r-w";
    }
    return "?";
}

std::string
RacePair::toString() const
{
    return strFormat("%s race on x%d: %s vs %s", raceKindName(kind),
                     var, prior.toString().c_str(),
                     current.toString().c_str());
}

} // namespace tc
