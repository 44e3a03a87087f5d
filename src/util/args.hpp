// util::Args — declarative typed CLI flag parsing.
//
// Every tool in the repo used to hand-roll its argv loop with
// positional atoi/atof and ad-hoc usage() functions; the loops drifted
// (some accepted --flag=value, some only --flag value, none had
// --help). Args is the one parser: a tool declares its flags with
// types, defaults, and help text, then parses. The behavioural
// contract, shared by every client:
//
//   * --name value and --name=value are both accepted;
//   * --help prints generated usage to stdout → caller exits 0;
//   * an unknown flag or a malformed value prints the error plus usage
//     to stderr → caller exits 2 (util::kExitUsage), per the repo exit
//     taxonomy (util/check.hpp);
//   * list flags may repeat (--query a --query b);
//   * anything not starting with "--" is a positional ("-" included,
//     so `--input -` style values still work as flag values).
//
// Declaration errors (getting an undeclared flag, type mismatch) are
// programmer bugs and throw cgc::util::Error via CGC_CHECK.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cgc::util {

/// Outcome of Args::parse(). The caller maps this onto the exit
/// taxonomy: kHelp → return kExitOk, kError → return kExitUsage.
enum class ParseStatus {
  kOk,     ///< flags parsed; getters are valid
  kHelp,   ///< --help was requested and usage was printed to stdout
  kError,  ///< bad flag/value; message + usage printed to stderr
};

/// Declarative typed flag parser (see file comment for the contract).
class Args {
 public:
  /// `prog` is the binary name shown in usage; `summary` is the one-line
  /// description under it.
  Args(std::string prog, std::string summary);

  /// Declares a string flag with a default value.
  void add_string(const std::string& name, const std::string& def,
                  const std::string& help);
  /// Declares an integer flag (int64; value must parse fully).
  void add_int(const std::string& name, std::int64_t def,
               const std::string& help);
  /// Declares a floating-point flag.
  void add_double(const std::string& name, double def,
                  const std::string& help);
  /// Declares a presence flag: false unless given; accepts an optional
  /// =true/=false value.
  void add_bool(const std::string& name, const std::string& help);
  /// Declares a repeatable string flag collected into a list.
  void add_list(const std::string& name, const std::string& help);
  /// Describes the positional arguments in usage text (`spec` like
  /// "<command> [args...]"). Parsing always collects positionals;
  /// this only documents them.
  void set_positional_help(const std::string& spec, const std::string& help);
  /// Appends a free-form paragraph to the generated usage text (env
  /// knobs, subcommand tables, exit codes).
  void add_usage_note(const std::string& note);

  /// Parses argv. On kError the message and usage have already been
  /// printed to stderr; on kHelp usage was printed to stdout.
  ParseStatus parse(int argc, char** argv);

  /// Value of a declared string flag (the default when not given).
  const std::string& get_string(const std::string& name) const;
  /// Value of a declared integer flag.
  std::int64_t get_int(const std::string& name) const;
  /// Value of a declared floating-point flag.
  double get_double(const std::string& name) const;
  /// True when a declared bool flag was given (and not =false).
  bool get_bool(const std::string& name) const;
  /// Collected values of a declared list flag (empty when not given).
  const std::vector<std::string>& get_list(const std::string& name) const;
  /// True when the flag appeared on the command line at all.
  bool provided(const std::string& name) const;
  /// Non-flag arguments, in order.
  const std::vector<std::string>& positionals() const {
    return positionals_;
  }

  /// The generated usage/help text (what --help prints).
  std::string usage() const;

 private:
  /// Flag value type tag.
  enum class Kind : std::uint8_t { kString, kInt, kDouble, kBool, kList };

  /// One declared flag: name, type, default, current value, help line.
  struct Flag {
    std::string name;
    Kind kind = Kind::kString;
    std::string help;
    std::string str_value;  ///< kString default/value
    std::int64_t int_value = 0;
    double dbl_value = 0.0;
    bool bool_value = false;
    std::vector<std::string> list_value;
    bool seen = false;  ///< appeared on the command line
  };

  Flag* find(const std::string& name);
  const Flag& require(const std::string& name, Kind kind) const;
  /// Assigns `value` to `flag`, validating by type. Returns false (with
  /// a message printed) on a malformed value.
  bool assign(Flag& flag, const std::string& value);

  std::string prog_;
  std::string summary_;
  std::string positional_spec_;
  std::string positional_help_;
  std::vector<std::string> notes_;
  std::vector<Flag> flags_;
  std::vector<std::string> positionals_;
};

/// Integer environment knob `name`: `fallback` when unset or empty,
/// else its value, which must be a whole integer as for an int flag;
/// anything else throws util::FatalError naming the variable.
long env_long(const char* name, long fallback);

}  // namespace cgc::util
