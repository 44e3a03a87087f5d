#include "util/args.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/check.hpp"

namespace cgc::util {

Args::Args(std::string prog, std::string summary)
    : prog_(std::move(prog)), summary_(std::move(summary)) {}

void Args::add_string(const std::string& name, const std::string& def,
                      const std::string& help) {
  CGC_CHECK_MSG(find(name) == nullptr, "duplicate flag --" + name);
  Flag f;
  f.name = name;
  f.kind = Kind::kString;
  f.help = help;
  f.str_value = def;
  flags_.push_back(std::move(f));
}

void Args::add_int(const std::string& name, std::int64_t def,
                   const std::string& help) {
  CGC_CHECK_MSG(find(name) == nullptr, "duplicate flag --" + name);
  Flag f;
  f.name = name;
  f.kind = Kind::kInt;
  f.help = help;
  f.int_value = def;
  flags_.push_back(std::move(f));
}

void Args::add_double(const std::string& name, double def,
                      const std::string& help) {
  CGC_CHECK_MSG(find(name) == nullptr, "duplicate flag --" + name);
  Flag f;
  f.name = name;
  f.kind = Kind::kDouble;
  f.help = help;
  f.dbl_value = def;
  flags_.push_back(std::move(f));
}

void Args::add_bool(const std::string& name, const std::string& help) {
  CGC_CHECK_MSG(find(name) == nullptr, "duplicate flag --" + name);
  Flag f;
  f.name = name;
  f.kind = Kind::kBool;
  f.help = help;
  flags_.push_back(std::move(f));
}

void Args::add_list(const std::string& name, const std::string& help) {
  CGC_CHECK_MSG(find(name) == nullptr, "duplicate flag --" + name);
  Flag f;
  f.name = name;
  f.kind = Kind::kList;
  f.help = help;
  flags_.push_back(std::move(f));
}

void Args::set_positional_help(const std::string& spec,
                               const std::string& help) {
  positional_spec_ = spec;
  positional_help_ = help;
}

void Args::add_usage_note(const std::string& note) {
  notes_.push_back(note);
}

Args::Flag* Args::find(const std::string& name) {
  for (Flag& f : flags_) {
    if (f.name == name) {
      return &f;
    }
  }
  return nullptr;
}

const Args::Flag& Args::require(const std::string& name, Kind kind) const {
  for (const Flag& f : flags_) {
    if (f.name == name) {
      CGC_CHECK_MSG(f.kind == kind, "flag --" + name +
                                        " accessed with the wrong type");
      return f;
    }
  }
  CGC_CHECK_MSG(false, "flag --" + name + " was never declared");
  std::abort();  // unreachable: CGC_CHECK_MSG(false) throws
}

bool Args::assign(Flag& flag, const std::string& value) {
  switch (flag.kind) {
    case Kind::kString:
      flag.str_value = value;
      return true;
    case Kind::kList:
      flag.list_value.push_back(value);
      return true;
    case Kind::kBool:
      if (value == "true" || value == "1") {
        flag.bool_value = true;
        return true;
      }
      if (value == "false" || value == "0") {
        flag.bool_value = false;
        return true;
      }
      std::fprintf(stderr, "%s: --%s expects true/false, got \"%s\"\n",
                   prog_.c_str(), flag.name.c_str(), value.c_str());
      return false;
    case Kind::kInt: {
      errno = 0;
      char* end = nullptr;
      const long long parsed = std::strtoll(value.c_str(), &end, 10);
      if (errno != 0 || end == value.c_str() || *end != '\0') {
        std::fprintf(stderr, "%s: --%s expects an integer, got \"%s\"\n",
                     prog_.c_str(), flag.name.c_str(), value.c_str());
        return false;
      }
      flag.int_value = parsed;
      return true;
    }
    case Kind::kDouble: {
      errno = 0;
      char* end = nullptr;
      const double parsed = std::strtod(value.c_str(), &end);
      if (errno != 0 || end == value.c_str() || *end != '\0') {
        std::fprintf(stderr, "%s: --%s expects a number, got \"%s\"\n",
                     prog_.c_str(), flag.name.c_str(), value.c_str());
        return false;
      }
      flag.dbl_value = parsed;
      return true;
    }
  }
  return false;
}

ParseStatus Args::parse(int argc, char** argv) {
  positionals_.clear();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || arg == "--") {
      // Positional; "-" (stdin convention) and "--" both land here.
      positionals_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_inline_value = false;
    const std::size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline_value = true;
    }
    if (name == "help") {
      std::fputs(usage().c_str(), stdout);
      return ParseStatus::kHelp;
    }
    Flag* flag = find(name);
    if (flag == nullptr) {
      std::fprintf(stderr, "%s: unknown flag --%s\n", prog_.c_str(),
                   name.c_str());
      std::fputs(usage().c_str(), stderr);
      return ParseStatus::kError;
    }
    flag->seen = true;
    if (flag->kind == Kind::kBool && !has_inline_value) {
      flag->bool_value = true;
      continue;
    }
    if (!has_inline_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --%s is missing its value\n",
                     prog_.c_str(), name.c_str());
        std::fputs(usage().c_str(), stderr);
        return ParseStatus::kError;
      }
      value = argv[++i];
    }
    if (!assign(*flag, value)) {
      std::fputs(usage().c_str(), stderr);
      return ParseStatus::kError;
    }
  }
  return ParseStatus::kOk;
}

const std::string& Args::get_string(const std::string& name) const {
  return require(name, Kind::kString).str_value;
}

std::int64_t Args::get_int(const std::string& name) const {
  return require(name, Kind::kInt).int_value;
}

double Args::get_double(const std::string& name) const {
  return require(name, Kind::kDouble).dbl_value;
}

bool Args::get_bool(const std::string& name) const {
  return require(name, Kind::kBool).bool_value;
}

const std::vector<std::string>& Args::get_list(
    const std::string& name) const {
  return require(name, Kind::kList).list_value;
}

bool Args::provided(const std::string& name) const {
  for (const Flag& f : flags_) {
    if (f.name == name) {
      return f.seen;
    }
  }
  CGC_CHECK_MSG(false, "flag --" + name + " was never declared");
  return false;
}

std::string Args::usage() const {
  std::ostringstream out;
  out << "usage: " << prog_;
  if (!flags_.empty()) {
    out << " [flags]";
  }
  if (!positional_spec_.empty()) {
    out << " " << positional_spec_;
  }
  out << "\n  " << summary_ << "\n";
  if (!positional_help_.empty()) {
    out << "\n  " << positional_spec_ << "\n      " << positional_help_
        << "\n";
  }
  if (!flags_.empty()) {
    out << "\nflags:\n";
  }
  for (const Flag& f : flags_) {
    std::string left = "--" + f.name;
    std::string def;
    switch (f.kind) {
      case Kind::kString:
        left += "=STR";
        if (!f.str_value.empty()) {
          def = " (default " + f.str_value + ")";
        }
        break;
      case Kind::kInt:
        left += "=N";
        def = " (default " + std::to_string(f.int_value) + ")";
        break;
      case Kind::kDouble: {
        left += "=X";
        char buf[48];
        std::snprintf(buf, sizeof(buf), " (default %g)", f.dbl_value);
        def = buf;
        break;
      }
      case Kind::kBool:
        break;
      case Kind::kList:
        left += "=STR (repeatable)";
        break;
    }
    out << "  ";
    out << left;
    const int pad = static_cast<int>(left.size()) >= 26
                        ? 1
                        : 26 - static_cast<int>(left.size());
    for (int s = 0; s < pad; ++s) {
      out << ' ';
    }
    out << f.help << def << "\n";
  }
  out << "  --help";
  for (int s = 0; s < 20; ++s) {
    out << ' ';
  }
  out << "print this message and exit 0\n";
  for (const std::string& note : notes_) {
    out << "\n" << note << "\n";
  }
  return out.str();
}

long env_long(const char* name, long fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') {
    return fallback;
  }
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (errno != 0 || end == value || *end != '\0') {
    throw FatalError(std::string(name) + ": not a number: " + value);
  }
  return parsed;
}

}  // namespace cgc::util
