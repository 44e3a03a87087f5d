#include "registry.hpp"

#include <algorithm>
#include <utility>

namespace cgc::bench {

const char* kind_name(CaseKind kind) {
  switch (kind) {
    case CaseKind::kFigure:
      return "figure";
    case CaseKind::kTable:
      return "table";
    case CaseKind::kAblation:
      return "ablation";
    case CaseKind::kExtension:
      return "extension";
  }
  return "unknown";
}

std::vector<BenchCase>& registry() {
  static std::vector<BenchCase> cases;
  return cases;
}

std::vector<const BenchCase*> sorted_cases() {
  std::vector<const BenchCase*> cases;
  for (const BenchCase& c : registry()) {
    cases.push_back(&c);
  }
  std::sort(cases.begin(), cases.end(),
            [](const BenchCase* a, const BenchCase* b) {
              return std::make_pair(a->kind, a->id) <
                     std::make_pair(b->kind, b->id);
            });
  return cases;
}

int register_case(BenchCase c) {
  registry().push_back(std::move(c));
  return 0;
}

}  // namespace cgc::bench
