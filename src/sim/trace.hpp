// Named time series: the Fig. 6 style plots (request rate / replication
// style over time) and the chaos campaign's recovery series. A run's event
// log is its obs::Tracer span recording (src/obs).
#pragma once

#include <string>
#include <vector>

#include "util/time.hpp"

namespace vdep::sim {

class TimeSeries {
 public:
  explicit TimeSeries(std::string name) : name_(std::move(name)) {}

  void record(SimTime at, double value) { points_.push_back({at, value}); }

  struct Point {
    SimTime at;
    double value;
  };

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Point>& points() const { return points_; }
  [[nodiscard]] bool empty() const { return points_.empty(); }

  // Resamples onto a regular grid [start, end] with `step`, carrying the last
  // value forward (suits step signals like "current replication style").
  [[nodiscard]] std::vector<Point> resample(SimTime start, SimTime end,
                                            SimTime step) const;

 private:
  std::string name_;
  std::vector<Point> points_;
};

}  // namespace vdep::sim
