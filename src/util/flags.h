#ifndef IGEPA_UTIL_FLAGS_H_
#define IGEPA_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace igepa {

/// Minimal command-line flag parser for the igepa tool: typed flags with
/// defaults and help text, `--name=value` / `--name value` syntax, `--flag`
/// shorthand for booleans, and positional-argument collection. Unknown flags
/// are errors (catches typos).
class ArgParser {
 public:
  explicit ArgParser(std::string program, std::string description = "");

  /// Flag definitions; names are given without the leading "--".
  void AddString(const std::string& name, std::string default_value,
                 std::string help);
  void AddInt(const std::string& name, int64_t default_value,
              std::string help);
  void AddDouble(const std::string& name, double default_value,
                 std::string help);
  void AddBool(const std::string& name, bool default_value, std::string help);

  /// Parses `args` (excluding argv[0]). Returns InvalidArgument for unknown
  /// flags, missing values or unparsable numbers.
  Status Parse(const std::vector<std::string>& args);

  /// Typed access; IGEPA_CHECK-fails on unknown names or type mismatches
  /// (programmer error).
  const std::string& GetString(const std::string& name) const;
  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  /// True when the flag was explicitly present on the command line.
  bool Provided(const std::string& name) const;

  /// Non-flag arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Help text listing every flag with its default (the value given at Add
  /// time, not one parsed since).
  std::string Usage() const;

 private:
  enum class Type { kString, kInt, kDouble, kBool };
  struct Flag {
    Type type;
    std::string help;
    /// Value syntax and default as Usage() prints them, fixed when the flag
    /// is added so parsed values never show up as defaults.
    std::string usage;
    std::string string_value;
    int64_t int_value = 0;
    double double_value = 0.0;
    bool bool_value = false;
    bool provided = false;
  };

  const Flag& Lookup(const std::string& name, Type type) const;
  Status SetValue(Flag* flag, const std::string& name,
                  const std::string& value);

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace igepa

#endif  // IGEPA_UTIL_FLAGS_H_
