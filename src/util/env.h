// Environment-variable configuration (e.g. PARSEMI_NUM_THREADS) and a tiny
// command-line flag parser shared by the bench/example binaries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

namespace parsemi {

// Reads an integer environment variable; nullopt when unset or unparsable.
std::optional<int64_t> env_int(const char* name);

// Reads a string environment variable; nullptr when unset or empty. Returns
// the process environment's own storage — no allocation, so hot paths (the
// scatter-path override checked once per semisort call) can use it without
// breaking the zero-heap steady state.
const char* env_cstr(const char* name);

// One row of an enum-valued override table: the environment value and the
// enum value it selects.
template <typename E>
struct env_choice {
  const char* name;
  E value;
};

// Resolves an enum-valued override (PARSEMI_SCATTER_PATH and friends):
// when `var` is set to a name listed in `table`, its value wins; unset,
// empty, or unlisted values fall through to `fallback` — the caller's
// params knob, which in turn carries the default. Allocation-free, so the
// per-call resolution keeps the zero-heap steady state.
template <typename E, size_t N>
E env_override(const char* var, const env_choice<E> (&table)[N], E fallback) {
  const char* v = env_cstr(var);
  if (v == nullptr) return fallback;
  for (const env_choice<E>& c : table) {
    if (std::strcmp(v, c.name) == 0) return c.value;
  }
  return fallback;
}

// Parses a human byte size: a non-negative integer with an optional binary
// suffix K/M/G/T (case-insensitive, ×1024 each) and an optional trailing
// 'B' ("512M", "2g", "64KB", "16384"). Whitespace, signs, fractions,
// trailing garbage, and values that overflow uint64 all yield nullopt.
// Allocation-free, so the per-call PARSEMI_MEMORY_BUDGET resolution in the
// semisort entry points keeps the zero-heap steady state.
std::optional<uint64_t> parse_byte_size(const char* s);

// parse_byte_size over an environment variable; nullopt when unset, empty,
// or unparsable.
std::optional<uint64_t> env_byte_size(const char* name);

// Minimal `--flag value` / `--flag=value` / `--switch` parser. Unrecognized
// positional arguments are kept in `positional()`.
class arg_parser {
 public:
  arg_parser(int argc, char** argv);

  // --name <v> or --name=<v>; returns fallback when absent.
  int64_t get_int(const std::string& name, int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  // Byte-size flag ("--memory-budget 512M"); exits 2 naming the flag on an
  // unparsable value, like the other numeric getters.
  uint64_t get_bytes(const std::string& name, uint64_t fallback) const;
  std::string get_string(const std::string& name, const std::string& fallback) const;
  bool has(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::optional<std::string> find(const std::string& name) const;
  std::vector<std::pair<std::string, std::string>> flags_;
  std::vector<std::string> positional_;
};

}  // namespace parsemi
