// cgcd — online characterization daemon.
//
// Ingests a live task-event stream and maintains the paper's headline
// metrics per event-time window, answering queries at the end of the
// stream. Three input modes:
//
//   cgcd --input trace.cgcs --rate 100000 --query priority_mix
//   cat task_events.csv | cgcd --input - --query queue --query noise
//   cgcd --generate --days 2 --width 3600 --query all
//
// Flags are declared through util::Args (--help for the full list);
// --name value and --name=value are both accepted.
//
// Environment: CGC_THREADS (parallel trace load and event sort; ingest
// itself is serial and thread-count-independent), CGC_METRICS /
// CGC_TRACE (observability export), CGC_FAULT_SPEC (deterministic
// fault injection; sites stream.drop / stream.dup).
//
// SIGTERM/SIGINT stop ingest at the next batch boundary: the open
// window is closed and spilled through the normal flush path, the
// summary carries "interrupted": true, and the exit stays clean — an
// operator's shutdown never tears the spill directory.
//
// Exit codes: 0 clean; 1 degraded (any late/dropped/duplicated/
// unparseable events — counted in the summary JSON, never a crash) or
// data error; 2 usage; 3 fatal.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "stream/daemon.hpp"
#include "stream/shutdown.hpp"
#include "util/args.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/time_util.hpp"

int main(int argc, char** argv) {
  cgc::stream::install_shutdown_handlers();
  cgc::util::Args args("cgcd", "online characterization daemon");
  args.add_string("input", "",
                  "trace file (CGCS, SWF, GWA or Google CSV) or \"-\" for "
                  "a Google task_events pipe on stdin");
  args.add_bool("generate", "synthesize a Google-model workload instead");
  args.add_double("days", 2.0, "generated workload horizon in days");
  args.add_double("sampling", 0.25, "generated task sampling rate");
  args.add_double("rate", 0.0,
                  "replay speedup: trace seconds per wall second "
                  "(0 = unthrottled)");
  args.add_int("batch", 8192, "events per ingest batch");
  args.add_int("width", 3600, "window width in seconds");
  args.add_int("slide", 0, "window slide in seconds (0 = width, tumbling)");
  args.add_int("lag", 300, "watermark lag in seconds");
  args.add_string("late", "drop", "late-event policy: drop | absorb");
  args.add_double("error", 0.01, "sketch relative error");
  args.add_int("rate-bins", 60, "noise sub-bins per window");
  args.add_string("spill", "",
                  "durable spill of closed windows (CGCS + JSONL)");
  args.add_list("query",
                "metric to answer (repeatable): priority_mix | job_cdf | "
                "task_cdf | submission | host_load | queue | noise | all");
  args.add_int("window", -1, "query window index (-1 = latest closed)");
  args.add_bool("strict",
                "fail on trace parse damage instead of counting it");
  args.add_usage_note(
      "One of --input or --generate is required.\n"
      "Exit codes: 0 clean; 1 degraded stream or data error; 2 usage;\n"
      "3 fatal.");
  switch (args.parse(argc, argv)) {
    case cgc::util::ParseStatus::kHelp:
      return cgc::util::kExitOk;
    case cgc::util::ParseStatus::kError:
      return cgc::util::kExitUsage;
    case cgc::util::ParseStatus::kOk:
      break;
  }

  cgc::stream::DaemonConfig config;
  config.input = args.get_string("input");
  config.generate = args.get_bool("generate");
  config.strict_load = args.get_bool("strict");
  config.generate_days = args.get_double("days");
  config.task_sampling_rate = args.get_double("sampling");
  config.rate = args.get_double("rate");
  config.window.width = args.get_int("width");
  config.window.slide = args.get_int("slide");
  config.window.watermark_lag = args.get_int("lag");
  config.window.relative_error = args.get_double("error");
  config.spill_dir = args.get_string("spill");
  config.queries = args.get_list("query");
  config.query_window = args.get_int("window");

  const auto fail_usage = [&](const std::string& message) {
    std::fprintf(stderr, "%s\n%s", message.c_str(), args.usage().c_str());
    return cgc::util::kExitUsage;
  };
  const std::string& late = args.get_string("late");
  if (late == "drop") {
    config.window.late_policy = cgc::stream::LatePolicy::kDrop;
  } else if (late == "absorb") {
    config.window.late_policy = cgc::stream::LatePolicy::kAbsorbOldest;
  } else {
    return fail_usage("--late must be drop or absorb, got " + late);
  }
  if (!args.positionals().empty()) {
    return fail_usage("cgcd takes no positional arguments");
  }
  if (!config.generate && config.input.empty()) {
    return fail_usage("one of --input or --generate is required");
  }
  for (const std::string& query : config.queries) {
    if (!cgc::stream::is_known_query(query)) {
      return fail_usage("unknown query: " + query);
    }
  }
  // Every value is checked before any work starts: a bad one is a usage
  // error naming the flag, not an engine invariant failing later.
  for (const char* flag : {"batch", "rate-bins", "width"}) {
    if (args.get_int(flag) <= 0) {
      return fail_usage(std::string("--") + flag + " must be positive, got " +
                        std::to_string(args.get_int(flag)));
    }
  }
  config.batch_size = static_cast<std::size_t>(args.get_int("batch"));
  config.window.rate_bins =
      static_cast<std::size_t>(args.get_int("rate-bins"));
  const cgc::stream::WindowConfig& window = config.window;
  if (window.slide < 0 ||
      (window.slide > 0 && window.width % window.slide != 0)) {
    return fail_usage("--slide must be 0 or divide --width " +
                      std::to_string(window.width) + ", got " +
                      std::to_string(window.slide));
  }
  if (window.watermark_lag < 0) {
    return fail_usage("--lag must be >= 0, got " +
                      std::to_string(window.watermark_lag));
  }
  const auto bad_value = [&](const char* flag, double value,
                             const char* want) {
    return fail_usage(std::string("--") + flag + " must be " + want +
                      ", got " + cgc::util::format_double(value));
  };
  if (!(window.relative_error > 0.0 && window.relative_error < 0.5)) {
    return bad_value("error", window.relative_error, "in (0, 0.5)");
  }
  if (!(config.rate >= 0.0)) {
    return bad_value("rate", config.rate, ">= 0");
  }
  if (!(config.generate_days * cgc::util::kSecondsPerDay >= 1.0)) {
    return bad_value("days", config.generate_days, "at least a second");
  }
  if (!(config.task_sampling_rate > 0.0 && config.task_sampling_rate <= 1.0)) {
    return bad_value("sampling", config.task_sampling_rate, "in (0, 1]");
  }
  try {
    return cgc::stream::run_daemon(config, std::cin, std::cout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return cgc::error::exit_code(e);
  }
}
