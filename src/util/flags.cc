#include "util/flags.h"

#include <sstream>

#include "util/logging.h"
#include "util/string_util.h"

namespace igepa {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::AddString(const std::string& name, std::string default_value,
                          std::string help) {
  Flag flag;
  flag.type = Type::kString;
  flag.help = std::move(help);
  flag.usage = "=<string> (default \"" + default_value + "\")";
  flag.string_value = std::move(default_value);
  flags_[name] = std::move(flag);
}

void ArgParser::AddInt(const std::string& name, int64_t default_value,
                       std::string help) {
  Flag flag;
  flag.type = Type::kInt;
  flag.help = std::move(help);
  flag.usage = "=<int> (default " + std::to_string(default_value) + ")";
  flag.int_value = default_value;
  flags_[name] = std::move(flag);
}

void ArgParser::AddDouble(const std::string& name, double default_value,
                          std::string help) {
  Flag flag;
  flag.type = Type::kDouble;
  flag.help = std::move(help);
  flag.usage = "=<number> (default " + FormatDouble(default_value, 4) + ")";
  flag.double_value = default_value;
  flags_[name] = std::move(flag);
}

void ArgParser::AddBool(const std::string& name, bool default_value,
                        std::string help) {
  Flag flag;
  flag.type = Type::kBool;
  flag.help = std::move(help);
  flag.usage = default_value ? " (default true)" : " (default false)";
  flag.bool_value = default_value;
  flags_[name] = std::move(flag);
}

Status ArgParser::SetValue(Flag* flag, const std::string& name,
                           const std::string& value) {
  flag->provided = true;
  switch (flag->type) {
    case Type::kString:
      flag->string_value = value;
      return Status::OK();
    case Type::kInt:
      if (!ParseInt(value, &flag->int_value)) {
        return Status::InvalidArgument("flag --" + name +
                                       " expects an integer, got '" + value +
                                       "'");
      }
      return Status::OK();
    case Type::kDouble:
      if (!ParseDouble(value, &flag->double_value)) {
        return Status::InvalidArgument("flag --" + name +
                                       " expects a number, got '" + value +
                                       "'");
      }
      return Status::OK();
    case Type::kBool:
      if (value == "true" || value == "1") {
        flag->bool_value = true;
      } else if (value == "false" || value == "0") {
        flag->bool_value = false;
      } else {
        return Status::InvalidArgument("flag --" + name +
                                       " expects true/false, got '" + value +
                                       "'");
      }
      return Status::OK();
  }
  return Status::Internal("unreachable flag type");
}

Status ArgParser::Parse(const std::vector<std::string>& args) {
  positional_.clear();
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    std::string value;
    bool has_value = false;
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      value = body.substr(eq + 1);
      body = body.substr(0, eq);
      has_value = true;
    }
    auto it = flags_.find(body);
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + body + "\n" +
                                     Usage());
    }
    Flag& flag = it->second;
    if (!has_value) {
      if (flag.type == Type::kBool) {
        flag.bool_value = true;  // bare --flag
        flag.provided = true;
        continue;
      }
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument("flag --" + body + " needs a value");
      }
      value = args[++i];
    }
    IGEPA_RETURN_IF_ERROR(SetValue(&flag, body, value));
  }
  return Status::OK();
}

const ArgParser::Flag& ArgParser::Lookup(const std::string& name,
                                         Type type) const {
  auto it = flags_.find(name);
  IGEPA_CHECK(it != flags_.end()) << "undefined flag " << name;
  IGEPA_CHECK(it->second.type == type) << "type mismatch for flag " << name;
  return it->second;
}

const std::string& ArgParser::GetString(const std::string& name) const {
  return Lookup(name, Type::kString).string_value;
}

int64_t ArgParser::GetInt(const std::string& name) const {
  return Lookup(name, Type::kInt).int_value;
}

double ArgParser::GetDouble(const std::string& name) const {
  return Lookup(name, Type::kDouble).double_value;
}

bool ArgParser::GetBool(const std::string& name) const {
  return Lookup(name, Type::kBool).bool_value;
}

bool ArgParser::Provided(const std::string& name) const {
  auto it = flags_.find(name);
  IGEPA_CHECK(it != flags_.end()) << "undefined flag " << name;
  return it->second.provided;
}

std::string ArgParser::Usage() const {
  std::ostringstream os;
  os << "usage: " << program_ << " [flags]\n";
  if (!description_.empty()) os << description_ << "\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << flag.usage << "\n      " << flag.help << "\n";
  }
  return os.str();
}

}  // namespace igepa
