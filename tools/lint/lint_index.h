// parsemi-check symbol index — phase 1 of the two-phase analyzer.
//
// The index is a project-wide table of every callable definition (free
// function, member function, lambda) with the facts the interprocedural
// rules need: parameter kinds (does it take a `pipeline_context&`, a
// `worker_pool&`, a `semisort_params`, an `arena&`, a `spill_file&`, a
// span?), body facts (does it open an `arena_scope`, allocate from an
// arena, spawn parallel work, call `default_pool()`, own a local
// `spill_file`?), its return type shape, and the set of callee names. The
// extraction is lexical (same tokenizer as the rules, no libclang) and
// deliberately name-based: overloads share an entry per definition and
// call edges resolve by bare callee name, which over-approximates the
// call graph — the right direction for an invariant checker.
//
// The index serializes to a deterministic text artifact (`lint_index`):
// same tree, byte-identical bytes, proven by parsemi_check_test. Phase 2
// (lint_dataflow.cpp) consumes the in-memory form plus the per-file token
// streams; the artifact exists so CI can diff what the analyzer saw and so
// a future resident-server arc can consume the symbol table without
// re-lexing the tree.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lint_lexer.h"

namespace parsemi_check {

// The scheduler's parallel-work entry points: a call to any of these
// spawns tasks onto a pool. Shared by the index (spawns_parallel fact),
// the parallel-capture rule, and pool-routing.
const std::set<std::string>& spawn_entry_points();

struct param_info {
  std::string type;  // normalized: tokens joined by single spaces
  std::string name;  // "" when unnamed
  bool is_context = false;   // pipeline_context&
  bool is_pool = false;      // worker_pool&
  bool is_params = false;    // semisort_params (value or ref)
  bool is_arena = false;     // arena& (or arena*)
  bool is_spill = false;     // spill_file& / spill_file*
  bool is_span = false;      // std::span<...> (value or ref)
};

struct func_entry {
  std::string file;
  int line = 0;
  std::string name;       // qualified-ish: ns::Class::name or <lambda:LINE>
  bool is_lambda = false;
  std::string return_type;       // "" for constructors/lambdas without ->
  bool returns_ptr_like = false; // return type mentions '*' or span
  std::vector<param_info> params;

  // Body facts (nested lambda bodies are attributed to the enclosing
  // function — calls made from a lambda run on behalf of its definer).
  bool opens_arena_scope = false;
  bool allocs_arena = false;      // .alloc / .alloc_bytes
  bool spawns_parallel = false;   // parallel_for* / par_do / fork_join
  bool calls_default_pool = false;
  bool has_local_spill = false;   // declares a spill_file local
  std::vector<std::string> calls; // sorted, unique bare callee names

  // Token range of the body in the file's lexed stream, body_open being
  // the '{'. Not serialized; phase 2 dataflow walks it.
  size_t body_open = 0;
  size_t body_close = 0;
  size_t params_open = 0;  // '(' of the parameter list; 0 when absent

  bool takes_context() const;
  bool takes_pool() const;
  bool takes_params() const;
  // A routing parameter: any of the above — a caller holding this
  // function can steer which pool executes its parallel work.
  bool is_routed() const;
};

struct index_error {
  std::string file;
  std::string message;
};

struct symbol_index {
  // Entries grouped by file in discovery order, by position within a file.
  std::vector<func_entry> functions;
  std::vector<index_error> errors;  // non-empty => index build failed
};

// Extracts every callable definition from one lexed file. Appends into
// `out`; structural problems (unbalanced braces at EOF) are reported as
// index errors rather than silently mis-scoped entries.
void index_file(const std::string& path, const lexed& lx, symbol_index& out);

// Deterministic text serialization: fixed header, one stanza per function,
// ordered exactly as extracted (file discovery order is already sorted).
std::string serialize_index(const symbol_index& idx);

// Parses serialize_index() output back into a symbol_index (body token
// ranges are not round-tripped; they are an in-memory affordance only).
// Returns false on malformed input.
bool parse_index(std::string_view text, symbol_index& out);

}  // namespace parsemi_check
