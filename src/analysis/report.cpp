#include "analysis/report.hpp"

#include <cctype>
#include <filesystem>
#include <fstream>

#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/file.hpp"

namespace cgc::analysis {

void Series::add_row(std::initializer_list<double> values) {
  CGC_CHECK_MSG(column_names.empty() || values.size() == column_names.size(),
                "row width does not match series columns");
  rows.emplace_back(values);
}

std::string sanitize_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') {
    out.pop_back();
  }
  return out.empty() ? "series" : out;
}

std::vector<std::string> Figure::write_dat(
    const std::string& directory) const {
  std::filesystem::create_directories(directory);
  std::vector<std::string> written;
  for (const Series& s : series) {
    written.push_back(id + "_" + sanitize_name(s.name) + ".dat");
    const std::string path = directory + "/" + written.back();
    std::ofstream out(path);
    out << "# " << title << " — " << s.name << '\n';
    out << "#";
    for (const std::string& c : s.column_names) {
      out << ' ' << c;
    }
    out << '\n';
    for (const auto& row : s.rows) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (i > 0) {
          out << ' ';
        }
        out << util::format_double(row[i]);
      }
      out << '\n';
    }
    util::close_or_throw(out, path);
  }
  return written;
}

}  // namespace cgc::analysis
