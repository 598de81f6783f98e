// Phase 2 of parsemi-check: interprocedural rules over the symbol index.
//
// Three rules live here because they need more than one function's worth of
// context: arena-escape follows arena-bound pointers across helper calls
// (the index says which functions return fresh arena memory),
// spill-lifetime follows spans derived from a spill_file through resets,
// moves and block exits, and pool-routing walks the call graph to find
// parallel work no caller can route onto its own pool.
//
// The shared currency is the "carries" discipline: an expression carries an
// arena/spill pointer when it uses the tainted name bare (`tmp`,
// `span<T>(tmp, n)`), takes its address (`&tmp[i]`), or calls a
// view-propagating member (`tmp.data()`, `tmp.subspan(...)`). A
// subscripted read (`tmp[i]`) or a value member (`tmp.size()`) produces a
// value computed FROM the memory, not the memory itself — those are clean.
// This is what retires the old lexical rule's "value, not a pointer"
// waivers: the analyzer now proves it instead of being told.
#include <algorithm>
#include <map>
#include <set>

#include "lint_rules.h"

namespace parsemi_check {

namespace {

std::string last_component(const std::string& qual) {
  size_t p = qual.rfind("::");
  return p == std::string::npos ? qual : qual.substr(p + 2);
}

// Members that yield another view of the same memory.
bool ptr_member(const std::string& m) {
  return m == "data" || m == "subspan" || m == "first" || m == "last" ||
         m == "begin" || m == "end";
}

bool is_alloc_name(const std::string& n) {
  return n == "alloc" || n == "alloc_bytes";
}

// Every pointer-carrying use inside [lo, hi): tainted-variable uses,
// direct arena allocations, and call shapes (whose return value may carry,
// pending the summary lookup).
struct carry_hits {
  std::vector<std::pair<std::string, int>> vars;   // (name, line)
  std::vector<int> allocs;                         // .alloc* call lines
  std::vector<std::pair<std::string, int>> calls;  // (callee, line)
};

template <class Pred>
carry_hits scan_carries(const std::vector<token>& toks, size_t lo, size_t hi,
                        Pred tainted_var) {
  carry_hits out;
  for (size_t i = lo; i < hi; ++i) {
    if (!is_ident(toks[i])) continue;
    const std::string& name = toks[i].text;
    bool member =
        i > lo && (is(toks[i - 1], ".") || is(toks[i - 1], "->"));
    if (member && is_alloc_name(name)) {
      size_t after = i + 1;  // skip template args: .alloc<Record>(n)
      if (after < hi && is(toks[after], "<")) {
        size_t c = match_angles(toks, after);
        if (c < hi) after = c + 1;
      }
      if (after < hi && is(toks[after], "(")) {
        out.allocs.push_back(toks[i].line);
        continue;
      }
    }
    if (member || (i > lo && is(toks[i - 1], "::"))) continue;
    if (control_keywords().count(name)) continue;
    bool tainted = tainted_var(name);
    if (!tainted) {
      size_t after = i + 1;
      if (after < hi && is(toks[after], "<")) {
        size_t c = match_angles(toks, after);
        if (c < hi && c + 1 < hi && is(toks[c + 1], "(")) after = c + 1;
      }
      if (after < hi && is(toks[after], "(")) {
        out.calls.push_back({name, toks[i].line});
      }
      continue;
    }
    bool amp = i > lo && is(toks[i - 1], "&");
    if (i + 1 < hi && is(toks[i + 1], "[")) {
      // tmp[i] reads an element value; &tmp[i] takes an interior pointer.
      if (amp) out.vars.push_back({name, toks[i].line});
      continue;
    }
    if (i + 1 < hi && (is(toks[i + 1], ".") || is(toks[i + 1], "->"))) {
      if (i + 2 < hi && is_ident(toks[i + 2]) && ptr_member(toks[i + 2].text)) {
        out.vars.push_back({name, toks[i].line});
      }
      continue;
    }
    out.vars.push_back({name, toks[i].line});
  }
  return out;
}

// Index of the first top-level '=' (not ==, <=, …; the lexer keeps those
// fused) within [lo, hi), or hi.
size_t top_level_assign(const std::vector<token>& toks, size_t lo, size_t hi) {
  int nest = 0;
  for (size_t i = lo; i < hi; ++i) {
    const std::string& x = toks[i].text;
    if (x == "(" || x == "[" || x == "{") ++nest;
    else if (x == ")" || x == "]" || x == "}") --nest;
    else if (x == "=" && nest == 0) return i;
  }
  return hi;
}

// Constructor-form initializer: `span<T> name ( …rhs… )`. Returns the name
// token index and the paren range, requiring a type-ish token before the
// name so a plain call statement `foo(args)` does not bind `foo`.
bool ctor_form(const std::vector<token>& toks, size_t lo, size_t hi,
               size_t& name_at, size_t& args_open, size_t& args_close) {
  for (size_t k = lo + 2; k < hi; ++k) {
    if (!is(toks[k], "(") || !is_ident(toks[k - 1])) continue;
    if (non_decl_keywords().count(toks[k - 1].text)) return false;
    const token& before = toks[k - 2];
    if (!(is_ident(before) || is(before, ">") || is(before, ">>") ||
          is(before, "&") || is(before, "*"))) {
      return false;
    }
    size_t close = match_forward(toks, k, "(", ")");
    if (close >= hi) return false;
    name_at = k - 1;
    args_open = k;
    args_close = close;
    return true;
  }
  return false;
}

// ---- summaries -----------------------------------------------------------

struct summaries {
  // Bare names of functions that (transitively) return fresh arena memory:
  // the helper allocates from a caller-supplied arena/context and hands the
  // pointer back. Binding such a result under an active arena_scope taints
  // it exactly like a direct .alloc().
  std::set<std::string> arena_returners;
  // Entry indices that spawn parallel work, directly or via callees.
  std::vector<char> spawns_transitive;
};

summaries build_summaries(const std::vector<unit>& units,
                          const symbol_index& idx) {
  summaries sm;
  std::map<std::string, std::vector<size_t>> by_name;
  for (size_t i = 0; i < idx.functions.size(); ++i) {
    by_name[last_component(idx.functions[i].name)].push_back(i);
  }
  std::map<std::string, const lexed*> lex_of;
  for (const unit& u : units) lex_of[u.path] = u.lx;

  // Per function: the origin markers of what its return statements carry —
  // "<alloc>" for a direct allocation, otherwise callee names.
  std::vector<std::set<std::string>> return_origins(idx.functions.size());
  for (size_t fi = 0; fi < idx.functions.size(); ++fi) {
    const func_entry& fe = idx.functions[fi];
    if (fe.is_lambda || !fe.returns_ptr_like) continue;
    auto lit = lex_of.find(fe.file);
    if (lit == lex_of.end() || fe.body_close <= fe.body_open) continue;
    const auto& toks = lit->second->tokens;
    std::map<std::string, std::set<std::string>> origins;  // var -> markers
    auto has_origin = [&](const std::string& n) {
      return origins.count(n) != 0;
    };
    size_t stmt = fe.body_open + 1;
    for (size_t i = fe.body_open + 1; i < fe.body_close; ++i) {
      const token& t = toks[i];
      if (is(t, "{") || is(t, "}")) {
        stmt = i + 1;
        continue;
      }
      if (!is(t, ";")) continue;
      size_t lo = stmt, hi = i;
      stmt = i + 1;
      if (lo >= hi) continue;
      if (is_ident(toks[lo]) && toks[lo].text == "return") {
        carry_hits h = scan_carries(toks, lo + 1, hi, has_origin);
        std::set<std::string>& ro = return_origins[fi];
        if (!h.allocs.empty()) ro.insert("<alloc>");
        for (const auto& v : h.vars) {
          const auto& o = origins[v.first];
          ro.insert(o.begin(), o.end());
        }
        for (const auto& c : h.calls) ro.insert(c.first);
        continue;
      }
      size_t eq = top_level_assign(toks, lo, hi);
      std::string bound;
      carry_hits h;
      if (eq < hi && eq > lo && is_ident(toks[eq - 1])) {
        bound = toks[eq - 1].text;
        h = scan_carries(toks, eq + 1, hi, has_origin);
      } else {
        size_t name_at, ao, ac;
        if (eq >= hi && ctor_form(toks, lo, hi, name_at, ao, ac)) {
          bound = toks[name_at].text;
          h = scan_carries(toks, ao + 1, ac, has_origin);
        }
      }
      if (bound.empty()) continue;
      std::set<std::string> o;
      if (!h.allocs.empty()) o.insert("<alloc>");
      for (const auto& v : h.vars) {
        const auto& src = origins[v.first];
        o.insert(src.begin(), src.end());
      }
      for (const auto& c : h.calls) o.insert(c.first);
      if (o.empty()) origins.erase(bound);
      else origins[bound] = std::move(o);
    }
  }

  // Fixed point: a function returns arena memory if a return carries a
  // direct allocation or the result of a function that does.
  std::vector<char> returns_arena(idx.functions.size(), 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t fi = 0; fi < idx.functions.size(); ++fi) {
      if (returns_arena[fi]) continue;
      for (const std::string& o : return_origins[fi]) {
        bool hit = o == "<alloc>";
        if (!hit) {
          auto it = by_name.find(o);
          if (it != by_name.end()) {
            for (size_t oi : it->second) {
              if (returns_arena[oi]) {
                hit = true;
                break;
              }
            }
          }
        }
        if (hit) {
          returns_arena[fi] = 1;
          changed = true;
          break;
        }
      }
    }
  }
  for (size_t fi = 0; fi < idx.functions.size(); ++fi) {
    if (returns_arena[fi]) {
      sm.arena_returners.insert(last_component(idx.functions[fi].name));
    }
  }

  // Transitive parallel spawning over the name-based call graph.
  sm.spawns_transitive.assign(idx.functions.size(), 0);
  for (size_t i = 0; i < idx.functions.size(); ++i) {
    sm.spawns_transitive[i] = idx.functions[i].spawns_parallel ? 1 : 0;
  }
  changed = true;
  while (changed) {
    changed = false;
    for (size_t fi = 0; fi < idx.functions.size(); ++fi) {
      if (sm.spawns_transitive[fi]) continue;
      for (const std::string& c : idx.functions[fi].calls) {
        auto it = by_name.find(c);
        if (it == by_name.end()) continue;
        bool spawns = false;
        for (size_t oi : it->second) {
          if (oi != fi && sm.spawns_transitive[oi]) {
            spawns = true;
            break;
          }
        }
        if (spawns) {
          sm.spawns_transitive[fi] = 1;
          changed = true;
          break;
        }
      }
    }
  }
  return sm;
}

// ---- rule: arena-escape --------------------------------------------------

void check_arena_escape(const unit& u, const func_entry& fe,
                        const summaries& sm, std::vector<finding>& out) {
  const auto& toks = u.lx->tokens;
  struct var_info {
    int scope_depth = 0;  // brace depth of the governing arena_scope
    bool dead = false;    // that scope's brace has closed
    int alloc_line = 0;
    int decl_depth = 0;
  };
  std::map<std::string, var_info> vars;
  std::vector<int> scope_stack;  // brace depths holding an arena_scope
  int depth = 1;  // body interior; the function's own braces sit outside
                  // the walked range, and scope_depth 0 means "no scope"

  std::set<std::string> ptr_params;  // pointer/span out-params by name
  for (const param_info& p : fe.params) {
    if (!p.name.empty() &&
        (p.is_span || p.type.find('*') != std::string::npos)) {
      ptr_params.insert(p.name);
    }
  }

  auto tainted = [&](const std::string& n) {
    auto it = vars.find(n);
    return it != vars.end() && it->second.scope_depth > 0;
  };
  auto add = [&](int line, std::string msg) {
    out.push_back({rule::arena_escape, u.path, line, std::move(msg), false,
                   {}});
  };

  size_t stmt = fe.body_open + 1;
  for (size_t i = fe.body_open + 1; i < fe.body_close; ++i) {
    const token& t = toks[i];
    if (is(t, "{")) {
      ++depth;
      stmt = i + 1;
      continue;
    }
    if (is(t, "}")) {
      while (!scope_stack.empty() && scope_stack.back() == depth) {
        scope_stack.pop_back();
        for (auto& [name, v] : vars) {
          if (!v.dead && v.scope_depth == depth) v.dead = true;
        }
      }
      for (auto it = vars.begin(); it != vars.end();) {
        if (it->second.decl_depth >= depth && depth > 0) it = vars.erase(it);
        else ++it;
      }
      --depth;
      stmt = i + 1;
      continue;
    }
    if (!is(t, ";")) continue;
    size_t lo = stmt, hi = i;
    stmt = i + 1;
    if (lo >= hi) continue;

    for (size_t k = lo; k < hi; ++k) {
      if (is_ident(toks[k]) && toks[k].text == "arena_scope" &&
          !(k > lo && (is(toks[k - 1], ".") || is(toks[k - 1], "->")))) {
        scope_stack.push_back(depth);
        break;
      }
    }
    bool active = !scope_stack.empty();

    if (is_ident(toks[lo]) && toks[lo].text == "return") {
      carry_hits h = scan_carries(toks, lo + 1, hi, tainted);
      if (!h.vars.empty()) {
        const auto& [name, line] = h.vars.front();
        const var_info& v = vars[name];
        add(line, "'" + name + "' (arena allocation from line " +
                      std::to_string(v.alloc_line) +
                      (v.dead ? ") is returned after its arena_scope rewound"
                              : ") escapes the arena_scope that owns it via "
                                "return"));
      } else if (active && !h.allocs.empty()) {
        add(h.allocs.front(),
            "freshly allocated arena memory is returned while an "
            "arena_scope is active — it rewinds at the scope's close");
      } else if (active) {
        for (const auto& [callee, line] : h.calls) {
          if (sm.arena_returners.count(callee)) {
            add(line, "result of '" + callee +
                          "()' (which returns fresh arena memory) escapes "
                          "the arena_scope via return");
            break;
          }
        }
      }
      continue;
    }

    size_t eq = top_level_assign(toks, lo, hi);
    if (eq < hi) {
      // Classify the target: member store, out-parameter store, or a plain
      // local binding.
      std::string lhs_name =
          eq > lo && is_ident(toks[eq - 1]) ? toks[eq - 1].text : "";
      size_t f0 = hi;
      for (size_t k = lo; k < eq; ++k) {
        if (is_ident(toks[k])) {
          f0 = k;
          break;
        }
      }
      bool member_target =
          (!lhs_name.empty() && lhs_name.back() == '_') ||
          (f0 < eq && toks[f0].text == "this");
      bool outparam_target = false;
      if (!member_target && f0 < eq && ptr_params.count(toks[f0].text)) {
        bool deref_before = f0 > lo && is(toks[f0 - 1], "*");
        bool postfix_after =
            f0 + 1 < eq && (is(toks[f0 + 1], "[") || is(toks[f0 + 1], "->"));
        outparam_target = deref_before || postfix_after;
      }
      if (member_target || outparam_target) {
        carry_hits h = scan_carries(toks, eq + 1, hi, tainted);
        std::string what;
        int line = 0;
        if (!h.vars.empty()) {
          const var_info& v = vars[h.vars.front().first];
          what = "'" + h.vars.front().first +
                 "' (arena allocation from line " +
                 std::to_string(v.alloc_line) + ")";
          line = h.vars.front().second;
        } else if (active && !h.allocs.empty()) {
          what = "freshly allocated arena memory";
          line = h.allocs.front();
        } else if (active) {
          for (const auto& [callee, cl] : h.calls) {
            if (sm.arena_returners.count(callee)) {
              what = "the result of '" + callee +
                     "()' (which returns fresh arena memory)";
              line = cl;
              break;
            }
          }
        }
        if (!what.empty()) {
          add(line, what + (member_target
                                ? " is stored into member '" +
                                      (lhs_name.empty() ? std::string("?")
                                                        : lhs_name) +
                                      "', which outlives the arena_scope"
                                : " is stored through out-parameter '" +
                                      toks[f0].text +
                                      "', escaping the arena_scope"));
        }
        continue;
      }
      if (!lhs_name.empty()) {
        carry_hits h = scan_carries(toks, eq + 1, hi, tainted);
        // `int* tmp = …` declares here; bare `tmp = …` reassigns a name
        // declared earlier, possibly in an outer block. The distinction
        // decides which block close erases the entry.
        bool is_decl = eq >= lo + 2;
        auto prev = vars.find(lhs_name);
        int dd = (!is_decl && prev != vars.end()) ? prev->second.decl_depth
                                                  : depth;
        if (!h.vars.empty()) {
          const var_info src = vars[h.vars.front().first];
          var_info v;
          v.scope_depth = src.scope_depth;
          v.dead = src.dead;
          v.alloc_line = src.alloc_line;
          v.decl_depth = dd;
          vars[lhs_name] = v;
        } else if (active && (!h.allocs.empty() || [&] {
                     for (const auto& c : h.calls) {
                       if (sm.arena_returners.count(c.first)) return true;
                     }
                     return false;
                   }())) {
          var_info v;
          v.scope_depth = scope_stack.back();
          v.alloc_line = toks[eq - 1].line;
          v.decl_depth = dd;
          vars[lhs_name] = v;
        } else {
          // Rebinding clears any old taint; keep the declaration depth so
          // a later tainting assignment erases at the right block close.
          var_info v;
          v.decl_depth = dd;
          vars[lhs_name] = v;
        }
      }
      continue;
    }

    // Constructor-form binding: span<Record> tmp(ctx.scratch.alloc<…>(n), n)
    size_t name_at, ao, ac;
    if (ctor_form(toks, lo, hi, name_at, ao, ac)) {
      carry_hits h = scan_carries(toks, ao + 1, ac, tainted);
      bool from_call = false;
      for (const auto& c : h.calls) {
        if (sm.arena_returners.count(c.first)) from_call = true;
      }
      if (!h.vars.empty()) {
        const var_info src = vars[h.vars.front().first];
        var_info v = src;
        v.decl_depth = depth;
        vars[toks[name_at].text] = v;
      } else if (active && (!h.allocs.empty() || from_call)) {
        var_info v;
        v.scope_depth = scope_stack.back();
        v.alloc_line = toks[name_at].line;
        v.decl_depth = depth;
        vars[toks[name_at].text] = v;
      }
    }
  }
}

// ---- rule: spill-lifetime ------------------------------------------------

void check_spill_lifetime(const unit& u, const func_entry& fe,
                          std::vector<finding>& out) {
  const auto& toks = u.lx->tokens;
  struct owner_info {
    int decl_depth = 0;
    int decl_line = 0;
    bool local = false;   // owned by this frame (not a reference/param)
    bool invalid = false;
    int invalid_line = 0;
    std::string invalid_why;
  };
  struct derived_info {
    std::string owner;
    int decl_depth = 0;
    int from_line = 0;
  };
  std::map<std::string, owner_info> owners;
  std::map<std::string, derived_info> derived;
  for (const param_info& p : fe.params) {
    if (p.is_spill && !p.name.empty()) {
      owner_info o;
      o.decl_depth = -1;
      o.decl_line = fe.line;
      owners[p.name] = o;  // caller-owned: uses fine, moves/resets tracked
    }
  }
  int depth = 1;  // body interior, matching check_arena_escape

  auto is_derived = [&](const std::string& n) {
    return derived.count(n) != 0;
  };
  auto add = [&](int line, std::string msg) {
    out.push_back({rule::spill_lifetime, u.path, line, std::move(msg), false,
                   {}});
  };

  size_t stmt = fe.body_open + 1;
  for (size_t i = fe.body_open + 1; i < fe.body_close; ++i) {
    const token& t = toks[i];
    if (is(t, "{")) {
      ++depth;
      stmt = i + 1;
      continue;
    }
    if (is(t, "}")) {
      for (auto& [name, o] : owners) {
        if (o.local && !o.invalid && o.decl_depth >= depth && depth > 0) {
          o.invalid = true;
          o.invalid_line = t.line;
          o.invalid_why = "destroyed at the end of its block";
        }
      }
      for (auto it = derived.begin(); it != derived.end();) {
        if (it->second.decl_depth >= depth && depth > 0)
          it = derived.erase(it);
        else ++it;
      }
      --depth;
      stmt = i + 1;
      continue;
    }
    if (!is(t, ";")) continue;
    size_t lo = stmt, hi = i;
    stmt = i + 1;
    if (lo >= hi) continue;

    // New owner: `spill_file name(bytes);` (a reference binding
    // `spill_file& r = …` tracks the name but stays caller-owned).
    std::string new_owner;
    for (size_t k = lo; k + 1 < hi; ++k) {
      if (!is_ident(toks[k]) || toks[k].text != "spill_file") continue;
      if (k > lo && (is(toks[k - 1], ".") || is(toks[k - 1], "->") ||
                     is(toks[k - 1], "::"))) {
        continue;
      }
      size_t n = k + 1;
      bool by_ref = false;
      while (n < hi && (is(toks[n], "&") || is(toks[n], "*") ||
                        (is_ident(toks[n]) && toks[n].text == "const"))) {
        if (is(toks[n], "&") || is(toks[n], "*")) by_ref = true;
        ++n;
      }
      if (n < hi && is_ident(toks[n]) &&
          !non_decl_keywords().count(toks[n].text)) {
        owner_info o;
        o.decl_depth = depth;
        o.decl_line = toks[n].line;
        o.local = !by_ref;
        owners[toks[n].text] = o;
        new_owner = toks[n].text;
      }
      break;
    }

    // Binding target of this statement, if any.
    std::string bound;
    size_t rhs_lo = hi, rhs_hi = hi;
    size_t eq = top_level_assign(toks, lo, hi);
    if (eq < hi && eq > lo && is_ident(toks[eq - 1])) {
      bound = toks[eq - 1].text;
      rhs_lo = eq + 1;
      rhs_hi = hi;
    } else if (eq >= hi) {
      size_t name_at, ao, ac;
      if (ctor_form(toks, lo, hi, name_at, ao, ac)) {
        bound = toks[name_at].text;
        rhs_lo = ao + 1;
        rhs_hi = ac;
      }
    }

    // Move of an owner: `std::move(o)`. Moving into another owner
    // transfers the derived spans (the mapping travels with ownership);
    // moving anywhere else puts the mapping out of the analyzer's sight.
    for (size_t k = lo; k + 2 < hi; ++k) {
      if (!is_ident(toks[k]) || toks[k].text != "move") continue;
      if (!is(toks[k + 1], "(") || !is_ident(toks[k + 2])) continue;
      auto oit = owners.find(toks[k + 2].text);
      if (oit == owners.end()) continue;
      std::string from = toks[k + 2].text;
      bool into_owner = !bound.empty() && owners.count(bound) &&
                        (bound == new_owner || bound != from);
      if (into_owner) {
        for (auto& [dn, d] : derived) {
          if (d.owner == from) d.owner = bound;
        }
        oit->second.invalid = true;
        oit->second.invalid_line = toks[k].line;
        oit->second.invalid_why = "moved into '" + bound + "'";
      } else {
        oit->second.invalid = true;
        oit->second.invalid_line = toks[k].line;
        oit->second.invalid_why = "moved away";
      }
    }

    // Reset of an owner: `o.reset()`.
    for (size_t k = lo; k + 2 < hi; ++k) {
      if (!is_ident(toks[k])) continue;
      auto oit = owners.find(toks[k].text);
      if (oit == owners.end()) continue;
      if (is(toks[k + 1], ".") && is_ident(toks[k + 2]) &&
          toks[k + 2].text == "reset") {
        oit->second.invalid = true;
        oit->second.invalid_line = toks[k].line;
        oit->second.invalid_why = "reset()";
      }
    }

    // Use of a derived span whose owner is gone — checked for every
    // statement shape, return statements included.
    for (size_t k = lo; k < hi; ++k) {
      if (!is_ident(toks[k])) continue;
      if (k > lo && (is(toks[k - 1], ".") || is(toks[k - 1], "->") ||
                     is(toks[k - 1], "::"))) {
        continue;
      }
      if (!bound.empty() && toks[k].text == bound) continue;
      auto dit = derived.find(toks[k].text);
      if (dit == derived.end()) continue;
      auto oit = owners.find(dit->second.owner);
      if (oit == owners.end() || !oit->second.invalid) continue;
      add(toks[k].line,
          "'" + toks[k].text + "' (derived from spill_file '" +
              dit->second.owner + "' at line " +
              std::to_string(dit->second.from_line) + ") is used after the "
              "owner was " + oit->second.invalid_why + " at line " +
              std::to_string(oit->second.invalid_line));
      break;  // one finding per statement keeps the output readable
    }

    // Escape of a derived span through return / member store. An invalid
    // owner was already flagged above with the more precise message.
    if (is_ident(toks[lo]) && toks[lo].text == "return") {
      carry_hits h = scan_carries(toks, lo + 1, hi, is_derived);
      for (const auto& [name, line] : h.vars) {
        const derived_info& d = derived[name];
        auto oit = owners.find(d.owner);
        if (oit == owners.end() || !oit->second.local ||
            oit->second.invalid) {
          continue;
        }
        add(line, "'" + name + "' (derived from spill_file '" + d.owner +
                      "' at line " + std::to_string(d.from_line) +
                      ") escapes via return — the mapping dies with its "
                      "owner at the end of this function");
        break;
      }
      continue;
    }
    if (eq < hi && !bound.empty() && bound.back() == '_') {
      carry_hits h = scan_carries(toks, rhs_lo, rhs_hi, is_derived);
      if (!h.vars.empty()) {
        const auto& [name, line] = h.vars.front();
        const derived_info& d = derived[name];
        auto oit = owners.find(d.owner);
        if (oit != owners.end() && oit->second.local) {
          add(line, "'" + name + "' (derived from spill_file '" + d.owner +
                        "' at line " + std::to_string(d.from_line) +
                        ") is stored into member '" + bound +
                        "', outliving its owner");
        }
      }
    }

    // New derived binding: `auto sp = o.as_span<T>();`, a view of a view
    // (`sp.subspan(…)`), or a copy of a derived span.
    if (!bound.empty() && !owners.count(bound)) {
      std::string src_owner;
      int from_line = 0;
      for (size_t k = rhs_lo; k + 2 < rhs_hi; ++k) {
        if (!is_ident(toks[k]) || !is(toks[k + 1], ".")) continue;
        if (!is_ident(toks[k + 2])) continue;
        const std::string& m = toks[k + 2].text;
        auto oit = owners.find(toks[k].text);
        if (oit != owners.end() &&
            (m == "as_span" || m == "data" || m == "map")) {
          src_owner = toks[k].text;
          from_line = toks[k].line;
          break;
        }
        auto dit = derived.find(toks[k].text);
        if (dit != derived.end() && ptr_member(m)) {
          src_owner = dit->second.owner;
          from_line = dit->second.from_line;
          break;
        }
      }
      if (src_owner.empty()) {
        carry_hits h = scan_carries(toks, rhs_lo, rhs_hi, is_derived);
        if (!h.vars.empty()) {
          const derived_info& d = derived[h.vars.front().first];
          src_owner = d.owner;
          from_line = d.from_line;
        }
      }
      if (!src_owner.empty()) {
        // Ctor-form and typed bindings declare here; a bare `sp = …`
        // re-points a span declared in an outer block, so the view must
        // survive this block's close (0 = function scope when unknown).
        bool is_decl = rhs_hi != hi || eq >= lo + 2;
        auto prev = derived.find(bound);
        derived_info d;
        d.owner = src_owner;
        d.from_line = from_line;
        d.decl_depth = is_decl ? depth
                       : prev != derived.end() ? prev->second.decl_depth
                                               : 0;
        derived[bound] = d;
      } else if (derived.count(bound)) {
        derived.erase(bound);  // rebound to something unrelated
      }
    }
  }
}

// ---- rule: pool-routing --------------------------------------------------

bool pool_routing_scope(const std::string& path) {
  return path.rfind("src/", 0) == 0 &&
         path.rfind("src/scheduler/", 0) != 0;
}

void check_pool_routing(const std::vector<unit>& units,
                        const symbol_index& idx, const summaries& sm,
                        std::vector<finding>& out) {
  std::map<std::string, const lexed*> lex_of;
  for (const unit& u : units) lex_of[u.path] = u.lx;

  // Which bare names have at least one indexed caller (excluding
  // self-recursion)?
  std::set<std::string> called;
  for (size_t fi = 0; fi < idx.functions.size(); ++fi) {
    const func_entry& fe = idx.functions[fi];
    std::string self = last_component(fe.name);
    for (const std::string& c : fe.calls) {
      if (c != self) called.insert(c);
    }
  }

  for (size_t fi = 0; fi < idx.functions.size(); ++fi) {
    const func_entry& fe = idx.functions[fi];
    if (!pool_routing_scope(fe.file)) continue;

    // Direct default_pool() grab: flagged at each call site. Lambdas are
    // covered by their enclosing function's body range; identical findings
    // from both walks collapse in the final dedupe.
    if (fe.calls_default_pool) {
      auto lit = lex_of.find(fe.file);
      if (lit != lex_of.end()) {
        const auto& toks = lit->second->tokens;
        for (size_t k = fe.body_open + 1; k + 1 < fe.body_close; ++k) {
          if (is_ident(toks[k]) && toks[k].text == "default_pool" &&
              is(toks[k + 1], "(") &&
              !(k > 0 && is(toks[k - 1], "::"))) {
            out.push_back(
                {rule::pool_routing, fe.file, toks[k].line,
                 "default_pool() grabbed directly — accept a worker_pool& "
                 "or pipeline_context& (or run under a bound pool) so "
                 "concurrent callers stay routable",
                 false,
                 {}});
          }
        }
      }
      continue;  // already flagged; the root check below would pile on
    }

    // Unrouted spawning root: transitively spawns parallel work, has no
    // routing parameter, and no indexed function calls it — so no caller
    // can ever steer its work onto a chosen pool. Constructors/destructors
    // are exempt: the name-based call graph cannot see `T t(n);`
    // construction sites, so the "no indexed caller" premise is
    // unverifiable for them.
    if (fe.is_lambda || !sm.spawns_transitive[fi] || fe.is_routed()) continue;
    if (!fe.is_lambda && fe.return_type.empty()) continue;  // ctor/dtor
    if (called.count(last_component(fe.name))) continue;
    out.push_back(
        {rule::pool_routing, fe.file, fe.line,
         "'" + fe.name +
             "' transitively spawns parallel work but neither accepts a "
             "worker_pool&/pipeline_context&/semisort_params nor has any "
             "indexed caller that does — thread a routing parameter "
             "through this entry point",
         false,
         {}});
  }
}

// ---- rule: planner-pure --------------------------------------------------

// Scope: the planner header(s) — src/**/planner.h. Planning must stay
// orchestration: a plan is cheap to build, reusable, and serializable
// precisely because the planner never executes. The probes it calls own
// their scratch and parallelism in their home headers.
bool planner_pure_scope(const std::string& path) {
  if (path.rfind("src/", 0) != 0) return false;
  size_t slash = path.find_last_of('/');
  return path.substr(slash + 1) == "planner.h";
}

void check_planner_pure(const symbol_index& idx, std::vector<finding>& out) {
  for (const func_entry& fe : idx.functions) {
    if (!planner_pure_scope(fe.file)) continue;
    // Nested lambda body facts are already attributed to the enclosing
    // function; flagging the lambda entries too would double-report.
    if (fe.is_lambda) continue;
    if (fe.opens_arena_scope) {
      out.push_back(
          {rule::planner_pure, fe.file, fe.line,
           "'" + fe.name +
               "' opens an arena_scope inside the planner — planning "
               "decides, it does not execute; move the scratch-owning "
               "probe to its home header",
           false,
           {}});
    }
    if (fe.spawns_parallel) {
      out.push_back(
          {rule::planner_pure, fe.file, fe.line,
           "'" + fe.name +
               "' spawns parallel work inside the planner — planning "
               "decides, it does not execute; let the probe it calls own "
               "its parallelism in its home header",
           false,
           {}});
    }
  }
}

}  // namespace

void run_dataflow_rules(const std::vector<unit>& units,
                        const symbol_index& idx, std::vector<finding>& out) {
  summaries sm = build_summaries(units, idx);

  std::map<std::string, const unit*> unit_of;
  for (const unit& u : units) unit_of[u.path] = &u;

  for (const func_entry& fe : idx.functions) {
    if (fe.is_lambda) continue;  // bodies covered by the enclosing walk
    auto it = unit_of.find(fe.file);
    if (it == unit_of.end() || fe.body_close <= fe.body_open) continue;
    check_arena_escape(*it->second, fe, sm, out);
    if (fe.file.rfind("src/", 0) == 0) {
      check_spill_lifetime(*it->second, fe, out);
    }
  }
  check_pool_routing(units, idx, sm, out);
  check_planner_pure(idx, out);

  // Nested scopes can be walked both standalone and from an enclosing
  // entry; identical findings collapse here.
  std::sort(out.begin(), out.end(), [](const finding& a, const finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.r != b.r) return static_cast<int>(a.r) < static_cast<int>(b.r);
    return a.message < b.message;
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const finding& a, const finding& b) {
                          return a.r == b.r && a.file == b.file &&
                                 a.line == b.line && a.message == b.message;
                        }),
            out.end());
}

}  // namespace parsemi_check
