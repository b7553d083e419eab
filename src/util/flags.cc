#include "util/flags.h"

#include <cstdlib>

#include "util/string_util.h"

namespace gsgrow {

Flags Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      flags.positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      flags.values_[arg] = argv[++i];
    } else {
      flags.values_[arg] = "true";
    }
  }
  return flags;
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

int64_t Flags::GetInt(const std::string& name, int64_t default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  int64_t v;
  if (ParseInt64(it->second, &v)) return v;
  NoteUnparsable(name, "an integer");
  return default_value;
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  double v;
  if (ParseDouble(it->second, &v)) return v;
  NoteUnparsable(name, "a number");
  return default_value;
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  NoteUnparsable(name, "true|false|1|0|yes|no|on|off");
  return default_value;
}

Status Flags::CheckParsed() const { return unparsable_; }

void Flags::NoteUnparsable(const std::string& name,
                           const char* expected) const {
  if (!unparsable_.ok()) return;
  unparsable_ = Status::InvalidArgument("bad value '" + values_.at(name) +
                                        "' for --" + name + " (expected " +
                                        expected + ")");
}

double EnvDouble(const char* name, double default_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return default_value;
  double v;
  return ParseDouble(raw, &v) ? v : default_value;
}

}  // namespace gsgrow
