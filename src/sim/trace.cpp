#include "sim/trace.hpp"

namespace vdep::sim {

std::vector<TimeSeries::Point> TimeSeries::resample(SimTime start, SimTime end,
                                                    SimTime step) const {
  std::vector<Point> out;
  if (step <= kTimeZero || end < start) return out;
  std::size_t i = 0;
  double last = points_.empty() ? 0.0 : points_.front().value;
  for (SimTime t = start; t <= end; t += step) {
    while (i < points_.size() && points_[i].at <= t) {
      last = points_[i].value;
      ++i;
    }
    out.push_back({t, last});
  }
  return out;
}

}  // namespace vdep::sim
