// Bench-case registry.
//
// Every reproduction pipeline (one paper figure/table/ablation) is a
// CGC_BENCH-registered function instead of a main(). All case sources
// link into cgc_report, which runs the whole sweep, or any subset with
// `--only <id>`, in one process over a shared in-memory trace cache, so
// each standard trace is built once.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace cgc::bench {

/// Where a case sits in the paper (drives report ordering/grouping).
enum class CaseKind { kFigure, kTable, kAblation, kExtension };

const char* kind_name(CaseKind kind);

struct BenchCase {
  std::string id;  ///< e.g. "fig04"
  std::string title;
  CaseKind kind = CaseKind::kFigure;
  std::function<void()> fn;
};

/// All cases linked into this binary, in registration (link) order.
std::vector<BenchCase>& registry();

/// All cases in paper order (figures, tables, ablations, extensions;
/// by id within a kind). Pointers into registry(); stable for the
/// process lifetime.
std::vector<const BenchCase*> sorted_cases();

/// Registers a case; returns a dummy for static-init use.
int register_case(BenchCase c);

/// Registers the body that follows as a bench case:
///   CGC_BENCH("fig02", cgc::bench::CaseKind::kFigure, "…title…") {
///     ...pipeline...
///   }
#define CGC_BENCH(id, kind, title)                                    \
  static void cgc_bench_case_body();                                  \
  static const int cgc_bench_case_registered_ =                       \
      ::cgc::bench::register_case(                                    \
          {id, title, kind, &cgc_bench_case_body});                   \
  static void cgc_bench_case_body()

}  // namespace cgc::bench
