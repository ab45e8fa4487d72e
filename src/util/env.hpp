// Environment-variable helpers shared by tests / benches / experiments.
#pragma once

#include <cstddef>
#include <string>

namespace qpinn {

/// True when the variable is set to a non-empty value other than "0",
/// "false", "no" or "off" (case-insensitive).
bool env_flag(const std::string& name);

/// Integer value of an environment variable, or `fallback` when unset/bad.
long long env_int(const std::string& name, long long fallback);

/// env_int for a count: `fallback` when unset/bad, and ConfigError naming
/// the variable when it is set below 1 (a negative value must not wrap to
/// a huge size_t).
std::size_t env_count(const std::string& name, std::size_t fallback);

/// Raw string value of an environment variable, or `fallback` when unset.
/// An empty value counts as unset.
std::string env_string(const std::string& name,
                       const std::string& fallback = "");

/// Experiment binaries run a fast smoke configuration by default; setting
/// QPINN_FULL=1 switches them to the full-size runs recorded in
/// EXPERIMENTS.md.
inline bool full_experiments() { return env_flag("QPINN_FULL"); }

}  // namespace qpinn
