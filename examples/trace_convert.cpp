// Trace generation and format conversion CLI.
//
// Demonstrates the trace-IO layer: generate calibrated synthetic traces
// and convert between the Google clusterdata-style directory layout and
// the SWF / GWA archive formats.
//
// Usage:
//   trace_convert generate google <out_dir> [days]
//   trace_convert generate <grid_system> <out.gwf> [days]
//   trace_convert google-to-swf <google_dir> <out.swf>
//   trace_convert gwa-to-swf <in.gwf> <out.swf>
//   trace_convert swf-to-gwa <in.swf> <out.gwf>
//   trace_convert to-cgcs <google_dir | in.swf | in.gwf> <out.cgcs>
//   trace_convert from-cgcs <in.cgcs> <google_dir | out.swf | out.gwf>
//   trace_convert info <google_dir | file.swf | file.gwf | file.cgcs>
//
// The CGCS commands convert any readable trace into the columnar binary
// store (parse once, mmap forever) and back out to the text formats.
#include <cstdio>
#include <cstring>
#include <string>

#include "gen/google_model.hpp"
#include "gen/grid_model.hpp"
#include "sim/cluster_sim.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "trace/google_format.hpp"
#include "trace/gwa_format.hpp"
#include "trace/loader.hpp"
#include "trace/swf_format.hpp"
#include "trace/validate.hpp"
#include "util/args.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/time_util.hpp"

namespace {

using namespace cgc;

void print_summary(const trace::TraceSet& trace) {
  const trace::TraceSummary s = trace.summary();
  std::printf("system: %s\n", trace.system_name().c_str());
  std::printf("  duration: %s\n",
              util::format_duration(s.duration).c_str());
  std::printf("  jobs: %zu, tasks: %zu, events: %zu\n", s.num_jobs,
              s.num_tasks, s.num_events);
  std::printf("  machines: %zu, usage samples: %zu\n", s.num_machines,
              s.num_samples);
  if (s.num_events > 0) {
    std::printf("  abnormal completion fraction: %.1f%%\n",
                s.abnormal_completion_fraction * 100.0);
  }
  const auto issues = trace::validate(trace);
  std::printf("  validation: %s\n",
              issues.empty()
                  ? "OK"
                  : (std::to_string(issues.size()) + " issue(s), first: " +
                     issues[0].message)
                        .c_str());
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// All reads go through trace::load_trace; format resolution
/// (extension, magic, field-count sniff) is its job.
trace::TraceSet load_any(const std::string& path,
                         trace::TraceFormat format = trace::TraceFormat::kAuto) {
  trace::LoadOptions options;
  options.format = format;
  return trace::load_trace(path, options);
}

/// Writes `trace` in the format implied by the output path: .swf, .gwf,
/// .cgcs, or a clusterdata CSV directory.
void write_any(const trace::TraceSet& trace, const std::string& path) {
  if (ends_with(path, ".swf")) {
    trace::write_swf(trace, path);
  } else if (ends_with(path, ".gwf")) {
    trace::write_gwa(trace, path);
  } else if (ends_with(path, ".cgcs")) {
    store::write_cgcs(trace, path);
  } else {
    trace::write_google_trace(trace, path);
  }
}

/// Builds the shared flag parser; the subcommand and its paths stay
/// positional (`trace_convert <command> <in> <out>`).
util::Args make_args() {
  util::Args args("trace_convert",
                  "trace generation and format conversion");
  args.add_int("days", 2, "generated workload horizon in days (generate)");
  args.set_positional_help(
      "<command> [args...]",
      "one of the subcommands below with its input/output paths");
  args.add_usage_note(
      "subcommands:\n"
      "  generate google <out_dir> [days]\n"
      "  generate <grid_system> <out.gwf> [days]\n"
      "  google-to-swf <google_dir> <out.swf>\n"
      "  gwa-to-swf <in.gwf> <out.swf>\n"
      "  swf-to-gwa <in.swf> <out.gwf>\n"
      "  to-cgcs <google_dir|in.swf|in.gwf> <out.cgcs>\n"
      "  from-cgcs <in.cgcs> <google_dir|out.swf|out.gwf>\n"
      "  info <google_dir | file.swf | file.gwf | file.cgcs>\n"
      "grid systems: AuverGrid NorduGrid SHARCNET ANL RICC "
      "METACENTRUM LLNL-Atlas DAS-2");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args = make_args();
  switch (args.parse(argc, argv)) {
    case util::ParseStatus::kHelp:
      return util::kExitOk;
    case util::ParseStatus::kError:
      return util::kExitUsage;
    case util::ParseStatus::kOk:
      break;
  }
  const std::vector<std::string>& pos = args.positionals();
  const auto usage = [&](std::string message = "") {
    if (!message.empty()) {
      message += '\n';
    }
    std::fprintf(stderr, "%s%s", message.c_str(), args.usage().c_str());
    return util::kExitUsage;
  };
  if (pos.size() < 2) {
    return usage();
  }
  const std::string& command = pos[0];
  try {
    if (command == "generate") {
      if (pos.size() < 3) {
        return usage();
      }
      const std::string& what = pos[1];
      const std::string& out = pos[2];
      // The positional [days] overrides --days; either must be a whole
      // number of days, checked before any work starts.
      std::int64_t days = args.get_int("days");
      if (pos.size() > 3) {
        try {
          days = util::parse_int(pos[3]);
        } catch (const util::DataError&) {
          return usage("days must be a whole number, got \"" + pos[3] +
                       "\"");
        }
      }
      if (days <= 0) {
        return usage("days must be positive, got " + std::to_string(days));
      }
      const util::TimeSec horizon = days * util::kSecondsPerDay;
      if (what == "google") {
        // A compact host-load simulation: produces all three tables.
        gen::GoogleModelConfig config;
        gen::GoogleWorkloadModel model(config);
        sim::SimConfig sim_config;
        sim_config.horizon = horizon;
        sim::ClusterSim sim(model.make_machines(16), sim_config);
        const trace::TraceSet trace =
            sim.run(model.generate_sim_workload(horizon, 16), "google");
        trace::write_google_trace(trace, out);
        std::printf("wrote Google-format trace to %s/\n", out.c_str());
        print_summary(trace);
      } else {
        for (const gen::GridSystemPreset& preset : gen::presets::all()) {
          if (preset.name == what) {
            const trace::TraceSet trace =
                gen::GridWorkloadModel(preset).generate_workload(horizon);
            trace::write_gwa(trace, out);
            std::printf("wrote GWA trace to %s\n", out.c_str());
            print_summary(trace);
            return util::kExitOk;
          }
        }
        return usage("unknown system: " + what);
      }
    } else if (command == "google-to-swf") {
      if (pos.size() < 3) {
        return usage();
      }
      const trace::TraceSet trace =
          load_any(pos[1], trace::TraceFormat::kGoogleCsv);
      trace::write_swf(trace, pos[2]);
      std::printf("wrote %zu jobs to %s\n", trace.jobs().size(),
                  pos[2].c_str());
    } else if (command == "gwa-to-swf") {
      if (pos.size() < 3) {
        return usage();
      }
      const trace::TraceSet trace =
          load_any(pos[1], trace::TraceFormat::kGwa);
      trace::write_swf(trace, pos[2]);
      std::printf("wrote %zu jobs to %s\n", trace.jobs().size(),
                  pos[2].c_str());
    } else if (command == "swf-to-gwa") {
      if (pos.size() < 3) {
        return usage();
      }
      const trace::TraceSet trace =
          load_any(pos[1], trace::TraceFormat::kSwf);
      trace::write_gwa(trace, pos[2]);
      std::printf("wrote %zu jobs to %s\n", trace.jobs().size(),
                  pos[2].c_str());
    } else if (command == "to-cgcs") {
      if (pos.size() < 3) {
        return usage();
      }
      const trace::TraceSet trace = load_any(pos[1]);
      store::write_cgcs(trace, pos[2]);
      const trace::TraceSummary s = trace.summary();
      std::printf("wrote %zu jobs / %zu events / %zu samples to %s\n",
                  s.num_jobs, s.num_events, s.num_samples, pos[2].c_str());
    } else if (command == "from-cgcs") {
      if (pos.size() < 3) {
        return usage();
      }
      const trace::TraceSet trace =
          load_any(pos[1], trace::TraceFormat::kCgcs);
      write_any(trace, pos[2]);
      std::printf("wrote %zu jobs to %s\n", trace.jobs().size(),
                  pos[2].c_str());
    } else if (command == "info") {
      const std::string& target = pos[1];
      const trace::TraceFormat format = trace::detect_format(target);
      std::printf("detected format: %s\n", trace::format_name(format));
      if (format == trace::TraceFormat::kCgcs) {
        const store::StoreReader reader(target);
        const store::StoreInfo& si = reader.info();
        std::printf("CGCS store: %s (%.2f MB, %zu chunks)\n",
                    target.c_str(),
                    static_cast<double>(si.file_size) / (1024.0 * 1024.0),
                    si.num_chunks);
        print_summary(reader.load_trace_set());
      } else {
        print_summary(load_any(target, format));
      }
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return cgc::error::exit_code(e);
  }
  return cgc::util::kExitOk;
}
