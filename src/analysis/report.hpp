// Report primitives: plottable series and figure/table containers.
//
// Every analyzer produces one of these; bench harnesses render them as
// ASCII (for eyeballing against the paper) and as gnuplot-ready .dat
// files (for regenerating the actual plots).
#pragma once

#include <array>
#include <string>
#include <vector>

namespace cgc::analysis {

/// One named curve: rows of x and one or more y columns.
struct Series {
  std::string name;
  std::vector<std::string> column_names;  ///< e.g. {"x", "cdf"}
  std::vector<std::vector<double>> rows;

  void add_row(std::initializer_list<double> values);
};

/// A figure: several series plus free-form annotations (joint ratios,
/// mm-distances, ... — whatever the paper prints inside the plot).
struct Figure {
  std::string id;     ///< e.g. "fig04a"
  std::string title;
  std::vector<Series> series;
  std::vector<std::string> annotations;

  /// Writes one .dat file per series into `directory`
  /// (<id>_<series>.dat, '#'-commented header), creating it if needed.
  void write_dat(const std::string& directory) const;
};

/// Sanitizes a series/system name into a filename fragment.
std::string sanitize_name(const std::string& name);

}  // namespace cgc::analysis
