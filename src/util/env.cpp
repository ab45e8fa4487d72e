#include "util/env.hpp"

#include <cctype>
#include <cstdlib>

#include "util/error.hpp"

namespace qpinn {

bool env_flag(const std::string& name) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr) return false;
  std::string value;
  for (const char* p = raw; *p != '\0'; ++p) {
    value.push_back(static_cast<char>(std::tolower(*p)));
  }
  return !(value.empty() || value == "0" || value == "false" ||
           value == "no" || value == "off");
}

long long env_int(const std::string& name, long long fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0') return fallback;
  return v;
}

std::size_t env_count(const std::string& name, std::size_t fallback) {
  const long long v = env_int(name, static_cast<long long>(fallback));
  if (v < 1) {
    throw ConfigError(name + " must be >= 1, got " + std::to_string(v));
  }
  return static_cast<std::size_t>(v);
}

std::string env_string(const std::string& name, const std::string& fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::string(raw);
}

}  // namespace qpinn
