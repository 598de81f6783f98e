#include "lint_index.h"

#include <algorithm>
#include <sstream>

namespace parsemi_check {

const std::set<std::string>& spawn_entry_points() {
  static const std::set<std::string> p = {"parallel_for", "parallel_for_blocks",
                                          "par_do", "fork_join",
                                          "parallel_for_rec"};
  return p;
}

namespace {

// Names that can precede '(' without being a callable definition's name:
// control flow plus specifiers that take parenthesized operands.
bool non_func_name(const std::string& s) {
  if (control_keywords().count(s)) return true;
  static const std::set<std::string> extra = {
      "constexpr", "consteval", "constinit", "alignas",  "alignof",
      "decltype",  "requires",  "operator",  "noexcept", "typeid",
      "sizeof",    "static_assert"};
  return extra.count(s) != 0;
}

bool specifier_keyword(const std::string& s) {
  static const std::set<std::string> k = {
      "static",   "inline",   "constexpr", "consteval", "constinit",
      "virtual",  "explicit", "friend",    "typename",  "extern",
      "thread_local", "mutable", "export"};
  return k.count(s) != 0;
}

struct extract_ctx {
  const std::string* path = nullptr;
  const lexed* lx = nullptr;
  symbol_index* out = nullptr;
  int lambda_count = 0;
  bool failed = false;

  void fail(int line, const std::string& what) {
    if (failed) return;
    failed = true;
    out->errors.push_back(
        {*path, what + " near line " + std::to_string(line) +
                    " — file cannot be indexed"});
  }
};

std::string join_scope(const std::string& prefix, const std::string& name) {
  if (prefix.empty()) return name;
  if (name.empty()) return prefix;
  return prefix + "::" + name;
}

// Splits [open+1, close) on top-level commas (tracking ()/[]/{} and a
// heuristic <> depth) and parses each group as one parameter.
std::vector<param_info> parse_params(const std::vector<token>& toks,
                                     size_t open, size_t close) {
  std::vector<param_info> out;
  std::vector<std::pair<size_t, size_t>> groups;
  int depth = 0, angle = 0;
  size_t start = open + 1;
  for (size_t i = open + 1; i < close; ++i) {
    const std::string& x = toks[i].text;
    if (x == "(" || x == "[" || x == "{") ++depth;
    else if (x == ")" || x == "]" || x == "}") --depth;
    else if (x == "<") ++angle;
    else if (x == ">" && angle > 0) --angle;
    else if (x == ">>" && angle > 0) angle = std::max(0, angle - 2);
    else if (x == "," && depth == 0 && angle == 0) {
      groups.push_back({start, i});
      start = i + 1;
    }
  }
  if (start < close) groups.push_back({start, close});

  for (auto [lo, hi] : groups) {
    if (lo >= hi) continue;
    param_info p;
    // Default argument: the name is the ident before the top-level '='.
    size_t name_at = hi;  // hi = unnamed
    int d2 = 0, a2 = 0;
    for (size_t i = lo; i < hi; ++i) {
      const std::string& x = toks[i].text;
      if (x == "(" || x == "[" || x == "{") ++d2;
      else if (x == ")" || x == "]" || x == "}") --d2;
      else if (x == "<") ++a2;
      else if ((x == ">" || x == ">>") && a2 > 0) --a2;
      else if (x == "=" && d2 == 0 && a2 == 0) {
        if (i > lo && is_ident(toks[i - 1])) name_at = i - 1;
        hi = i;  // type tokens stop at the default
        break;
      }
    }
    if (name_at == hi + 1) name_at = hi;  // (defensive; hi moved)
    if (name_at >= hi && hi > lo && is_ident(toks[hi - 1]) && hi - lo > 1) {
      const std::string& prev = toks[hi - 2].text;
      if (is_ident(toks[hi - 2]) || prev == ">" || prev == ">>" ||
          prev == "*" || prev == "&" || prev == "&&" || prev == "]") {
        name_at = hi - 1;
      }
    }
    if (name_at < hi) p.name = toks[name_at].text;
    std::string type;
    for (size_t i = lo; i < hi; ++i) {
      if (i == name_at) continue;
      if (!type.empty()) type += ' ';
      type += toks[i].text;
    }
    p.type = type;
    bool has_ref = false, has_ptr = false;
    bool ctx = false, pool = false, params = false, arena = false,
         spill = false, span = false;
    for (size_t i = lo; i < hi; ++i) {
      if (i == name_at) continue;
      const std::string& x = toks[i].text;
      if (x == "&" || x == "&&") has_ref = true;
      else if (x == "*") has_ptr = true;
      else if (x == "pipeline_context") ctx = true;
      else if (x == "worker_pool") pool = true;
      else if (x == "semisort_params") params = true;
      else if (x == "arena") arena = true;
      else if (x == "spill_file") spill = true;
      else if (x == "span") span = true;
    }
    p.is_context = ctx && (has_ref || has_ptr);
    p.is_pool = pool && (has_ref || has_ptr);
    p.is_params = params;
    p.is_arena = arena && (has_ref || has_ptr);
    p.is_spill = spill;
    p.is_span = span;
    out.push_back(p);
  }
  return out;
}

void scan_body_facts(const std::vector<token>& toks, size_t lo, size_t hi,
                     func_entry& fe) {
  std::set<std::string> calls;
  for (size_t i = lo; i < hi; ++i) {
    if (!is_ident(toks[i])) continue;
    const std::string& name = toks[i].text;
    bool member = i > lo && (is(toks[i - 1], ".") || is(toks[i - 1], "->"));
    if (name == "arena_scope" && !member) fe.opens_arena_scope = true;
    if (name == "spill_file" && !member && i + 1 < hi &&
        is_ident(toks[i + 1]) && !non_decl_keywords().count(toks[i + 1].text)) {
      fe.has_local_spill = true;
    }
    // Call shape: ident '(' — or ident '<tmpl-args>' '(' for template calls.
    size_t after = i + 1;
    if (after < hi && is(toks[after], "<")) {
      size_t c = match_angles(toks, after);
      if (c < hi && c + 1 < hi && is(toks[c + 1], "(")) after = c + 1;
    }
    if (after >= hi || !is(toks[after], "(")) continue;
    if (non_func_name(name)) continue;
    if (member &&
        (name == "alloc" || name == "alloc_bytes")) {
      fe.allocs_arena = true;
    }
    if (spawn_entry_points().count(name)) fe.spawns_parallel = true;
    if (name == "default_pool") fe.calls_default_pool = true;
    calls.insert(name);
  }
  fe.calls.assign(calls.begin(), calls.end());
}

// A '[' starts a lambda when the preceding token cannot end a postfix
// expression (which would make '[' a subscript) and the capture list is
// followed by a parameter list or body.
bool lambda_starts_at(const std::vector<token>& toks, size_t i) {
  if (!is(toks[i], "[")) return false;
  if (i > 0) {
    const token& p = toks[i - 1];
    if (p.kind == tok_kind::number || p.kind == tok_kind::str) return false;
    if (is_ident(p) && !non_decl_keywords().count(p.text)) return false;
    if (p.kind == tok_kind::punct &&
        (p.text == "]" || p.text == ")" || p.text == "[")) {
      return false;  // subscript chain or attribute [[...]]
    }
  }
  size_t close = match_forward(toks, i, "[", "]");
  if (close >= toks.size()) return false;
  size_t k = close + 1;
  if (k < toks.size() && is(toks[k], "<")) {  // generic lambda template intro
    size_t c = match_angles(toks, k);
    if (c >= toks.size()) return false;
    k = c + 1;
  }
  if (k >= toks.size()) return false;
  return is(toks[k], "(") || is(toks[k], "{");
}

void scan_scope(extract_ctx& cx, size_t lo, size_t hi,
                const std::string& prefix, const std::string& class_name);

// Registers one callable and recurses into its body. Returns the body's
// closing-brace index.
size_t record_callable(extract_ctx& cx, func_entry fe, size_t body_open,
                       const std::string& own_scope) {
  const auto& toks = cx.lx->tokens;
  size_t body_close = match_forward(toks, body_open, "{", "}");
  if (body_close >= toks.size()) {
    cx.fail(toks[body_open].line, "unbalanced '{'");
    return toks.size();
  }
  fe.body_open = body_open;
  fe.body_close = body_close;
  scan_body_facts(toks, body_open + 1, body_close, fe);
  cx.out->functions.push_back(fe);
  scan_scope(cx, body_open + 1, body_close, own_scope, "");
  return body_close;
}

// Handles a lambda whose '[' sits at `i`; returns the index to resume from
// (its body's '}'), or `i` when it turns out not to be a lambda.
size_t handle_lambda(extract_ctx& cx, size_t i, const std::string& prefix) {
  const auto& toks = cx.lx->tokens;
  size_t cap_close = match_forward(toks, i, "[", "]");
  size_t k = cap_close + 1;
  if (k < toks.size() && is(toks[k], "<")) {
    size_t c = match_angles(toks, k);
    if (c < toks.size()) k = c + 1;
  }
  func_entry fe;
  fe.file = *cx.path;
  fe.line = toks[i].line;
  fe.is_lambda = true;
  fe.name = join_scope(prefix, "<lambda#" + std::to_string(cx.lambda_count++) +
                                   "@" + std::to_string(toks[i].line) + ">");
  if (k < toks.size() && is(toks[k], "(")) {
    size_t pclose = match_forward(toks, k, "(", ")");
    if (pclose >= toks.size()) {
      cx.fail(toks[k].line, "unbalanced '('");
      return toks.size();
    }
    fe.params_open = k;
    fe.params = parse_params(toks, k, pclose);
    k = pclose + 1;
  }
  // Specifiers and trailing return type up to the body.
  while (k < toks.size() && !is(toks[k], "{")) {
    const std::string& x = toks[k].text;
    if (x == "mutable" || x == "noexcept" || x == "constexpr") {
      ++k;
      if (k < toks.size() && is(toks[k], "(")) {
        size_t c = match_forward(toks, k, "(", ")");
        if (c >= toks.size()) return i;
        k = c + 1;
      }
      continue;
    }
    if (x == "->") {
      ++k;
      std::string ret;
      while (k < toks.size() && !is(toks[k], "{") && !is(toks[k], ";")) {
        if (is(toks[k], "<")) {
          size_t c = match_angles(toks, k);
          if (c >= toks.size()) break;
          for (size_t m = k; m <= c; ++m) {
            if (!ret.empty()) ret += ' ';
            ret += toks[m].text;
          }
          k = c + 1;
          continue;
        }
        if (!ret.empty()) ret += ' ';
        ret += toks[k].text;
        ++k;
      }
      fe.return_type = ret;
      continue;
    }
    return i;  // not a lambda after all
  }
  if (k >= toks.size()) return i;
  fe.returns_ptr_like = fe.return_type.find('*') != std::string::npos ||
                        fe.return_type.find("span") != std::string::npos;
  return record_callable(cx, std::move(fe), k, fe.name);
}

// The recursive scope scanner: finds namespace/class scopes, function
// definitions, and lambdas inside the token range [lo, hi).
void scan_scope(extract_ctx& cx, size_t lo, size_t hi,
                const std::string& prefix, const std::string& class_name) {
  const auto& toks = cx.lx->tokens;
  size_t stmt_begin = lo;
  for (size_t i = lo; i < hi && !cx.failed; ++i) {
    const token& t = toks[i];
    if (is(t, ";") || is(t, "}")) {
      stmt_begin = i + 1;
      continue;
    }
    // public: / private: / protected: reset the statement for return-type
    // capture; ':' elsewhere at this level is rare enough to ignore.
    if (is(t, ":") && i > lo && is_ident(toks[i - 1]) &&
        (toks[i - 1].text == "public" || toks[i - 1].text == "private" ||
         toks[i - 1].text == "protected")) {
      stmt_begin = i + 1;
      continue;
    }
    if (is_ident(t) && t.text == "template" && i + 1 < hi &&
        is(toks[i + 1], "<") && !(i > lo && is(toks[i - 1], "."))) {
      size_t c = match_angles(toks, i + 1);
      if (c < hi) {
        i = c;
        stmt_begin = i + 1;
        continue;
      }
    }
    if (is_ident(t) && t.text == "namespace") {
      std::string name;
      size_t k = i + 1;
      while (k < hi && (is_ident(toks[k]) || is(toks[k], "::"))) {
        name += toks[k].text;
        ++k;
      }
      if (k < hi && is(toks[k], "{")) {
        size_t close = match_forward(toks, k, "{", "}");
        if (close >= toks.size()) {
          cx.fail(toks[k].line, "unbalanced '{'");
          return;
        }
        scan_scope(cx, k + 1, close, join_scope(prefix, name), "");
        i = close;
        stmt_begin = i + 1;
      } else {
        i = k;  // alias or forward decl
        stmt_begin = i + 1;
      }
      continue;
    }
    if (is_ident(t) &&
        (t.text == "class" || t.text == "struct" || t.text == "union") &&
        !(i > lo && is_ident(toks[i - 1]) && toks[i - 1].text == "enum")) {
      std::string name;
      size_t k = i + 1;
      if (k < hi && is_ident(toks[k]) && !non_decl_keywords().count(toks[k].text)) {
        name = toks[k].text;
        ++k;
      }
      // Skip base list / final / template args until '{' or ';'.
      int depth = 0, angle = 0;
      size_t body = hi;
      for (; k < hi; ++k) {
        const std::string& x = toks[k].text;
        if (x == "(" || x == "[") ++depth;
        else if (x == ")" || x == "]") --depth;
        else if (x == "<") ++angle;
        else if ((x == ">" || x == ">>") && angle > 0) --angle;
        else if (x == ";" && depth == 0) break;
        else if (x == "{" && depth == 0 && angle == 0) {
          body = k;
          break;
        } else if (x == "=") {
          break;  // `struct X = ...` cannot happen; treat as non-scope
        }
      }
      if (body < hi) {
        size_t close = match_forward(toks, body, "{", "}");
        if (close >= toks.size()) {
          cx.fail(toks[body].line, "unbalanced '{'");
          return;
        }
        scan_scope(cx, body + 1, close, join_scope(prefix, name), name);
        i = close;
      } else {
        i = k;
      }
      stmt_begin = i + 1;
      continue;
    }
    if (is_ident(t) && t.text == "enum") {
      size_t k = i + 1;
      while (k < hi && !is(toks[k], "{") && !is(toks[k], ";")) ++k;
      if (k < hi && is(toks[k], "{")) {
        size_t close = match_forward(toks, k, "{", "}");
        if (close >= toks.size()) {
          cx.fail(toks[k].line, "unbalanced '{'");
          return;
        }
        i = close;
      } else {
        i = k;
      }
      stmt_begin = i + 1;
      continue;
    }
    if (is(t, "[") && lambda_starts_at(toks, i)) {
      size_t resume = handle_lambda(cx, i, prefix);
      if (resume != i) {
        i = resume;
        stmt_begin = i + 1;
        continue;
      }
    }
    if (is(t, "(") && i > lo && is_ident(toks[i - 1]) &&
        !non_func_name(toks[i - 1].text) &&
        !(i >= 2 && (is(toks[i - 2], ".") || is(toks[i - 2], "->")))) {
      // Candidate function definition: name '(' params ')' [specifiers]
      // [ctor-inits] '{'.
      size_t name_at = i - 1;
      size_t q = match_forward(toks, i, "(", ")");
      if (q >= toks.size()) {
        cx.fail(t.line, "unbalanced '('");
        return;
      }
      size_t k = q + 1;
      bool plausible = true;
      while (k < hi && plausible) {
        const std::string& x = toks[k].text;
        if (x == "const" || x == "mutable" || x == "override" ||
            x == "final" || x == "&" || x == "&&" || x == "try") {
          ++k;
        } else if (x == "noexcept") {
          ++k;
          if (k < hi && is(toks[k], "(")) {
            size_t c = match_forward(toks, k, "(", ")");
            if (c >= toks.size()) {
              cx.fail(toks[k].line, "unbalanced '('");
              return;
            }
            k = c + 1;
          }
        } else if (x == "->") {
          ++k;
          while (k < hi && !is(toks[k], "{") && !is(toks[k], ";") &&
                 !is(toks[k], "=") && !is(toks[k], ",") && !is(toks[k], ")")) {
            if (is(toks[k], "<")) {
              size_t c = match_angles(toks, k);
              if (c >= toks.size()) {
                plausible = false;
                break;
              }
              k = c + 1;
              continue;
            }
            ++k;
          }
        } else {
          break;
        }
      }
      bool is_def = false;
      if (plausible && k < hi && is(toks[k], ":")) {
        // Constructor member-init list: ident ('('|'{') matched, comma-
        // separated, ending at the body's '{'.
        ++k;
        while (k < hi) {
          while (k < hi && (is_ident(toks[k]) || is(toks[k], "::"))) ++k;
          if (k < hi && is(toks[k], "<")) {
            size_t c = match_angles(toks, k);
            if (c >= hi) break;
            k = c + 1;
          }
          if (k < hi && is(toks[k], "(")) {
            size_t c = match_forward(toks, k, "(", ")");
            if (c >= toks.size()) break;
            k = c + 1;
          } else if (k < hi && is(toks[k], "{")) {
            size_t c = match_forward(toks, k, "{", "}");
            if (c >= toks.size()) break;
            k = c + 1;
          } else {
            break;
          }
          if (k < hi && is(toks[k], ",")) {
            ++k;
            continue;
          }
          break;
        }
        if (k < hi && is(toks[k], "{")) is_def = true;
      } else if (plausible && k < hi && is(toks[k], "{")) {
        is_def = true;
      }
      if (is_def) {
        // Qualified name: walk back over `ident ::` pairs and '~'.
        std::string name = toks[name_at].text;
        size_t back = name_at;
        if (back > lo && is(toks[back - 1], "~")) {
          name = "~" + name;
          --back;
        }
        while (back >= lo + 2 && is(toks[back - 1], "::") &&
               is_ident(toks[back - 2])) {
          name = toks[back - 2].text + "::" + name;
          back -= 2;
        }
        func_entry fe;
        fe.file = *cx.path;
        fe.line = toks[name_at].line;
        fe.name = join_scope(prefix, name);
        fe.params_open = i;
        fe.params = parse_params(toks, i, q);
        // Return type: the statement tokens before the (possibly
        // qualified) name, minus specifiers and attributes.
        bool is_ctor = !class_name.empty() &&
                       (toks[name_at].text == class_name ||
                        name == "~" + class_name ||
                        toks[name_at].text == "~" + class_name);
        if (!is_ctor) {
          std::string ret;
          for (size_t m = stmt_begin; m < back; ++m) {
            if (is_ident(toks[m]) && specifier_keyword(toks[m].text)) continue;
            if (is(toks[m], "[") && m + 1 < back && is(toks[m + 1], "[")) {
              size_t c = match_forward(toks, m, "[", "]");
              if (c < back) {
                m = c;
                continue;
              }
            }
            if (!ret.empty()) ret += ' ';
            ret += toks[m].text;
          }
          fe.return_type = ret;
        }
        fe.returns_ptr_like =
            fe.return_type.find('*') != std::string::npos ||
            fe.return_type.find("span") != std::string::npos;
        size_t close = record_callable(cx, fe, k, fe.name);
        i = close;
        stmt_begin = i + 1;
        continue;
      }
      continue;  // plain call or declaration; keep scanning inside the args
    }
    if (is(t, "{")) {
      // Plain block (control-flow body, braced init): recurse so nested
      // lambdas and local types are still found.
      size_t close = match_forward(toks, i, "{", "}");
      if (close >= toks.size()) {
        cx.fail(t.line, "unbalanced '{'");
        return;
      }
      scan_scope(cx, i + 1, close, prefix, class_name);
      i = close;
      stmt_begin = i + 1;
      continue;
    }
  }
}

}  // namespace

bool func_entry::takes_context() const {
  for (const param_info& p : params)
    if (p.is_context) return true;
  return false;
}
bool func_entry::takes_pool() const {
  for (const param_info& p : params)
    if (p.is_pool) return true;
  return false;
}
bool func_entry::takes_params() const {
  for (const param_info& p : params)
    if (p.is_params) return true;
  return false;
}
bool func_entry::is_routed() const {
  return takes_context() || takes_pool() || takes_params();
}

void index_file(const std::string& path, const lexed& lx, symbol_index& out) {
  extract_ctx cx;
  cx.path = &path;
  cx.lx = &lx;
  cx.out = &out;
  scan_scope(cx, 0, lx.tokens.size(), "", "");
}

std::string serialize_index(const symbol_index& idx) {
  std::set<std::string> files;
  for (const func_entry& f : idx.functions) files.insert(f.file);
  std::ostringstream os;
  os << "# parsemi-check symbol index v1\n";
  os << "files " << files.size() << "\n";
  os << "functions " << idx.functions.size() << "\n";
  auto flag = [](bool b) { return b ? '1' : '0'; };
  for (const func_entry& f : idx.functions) {
    os << "func " << f.file << " " << f.line << " lambda=" << flag(f.is_lambda)
       << " ptr=" << flag(f.returns_ptr_like)
       << " scope=" << flag(f.opens_arena_scope)
       << " alloc=" << flag(f.allocs_arena)
       << " spawn=" << flag(f.spawns_parallel)
       << " dpool=" << flag(f.calls_default_pool)
       << " spill=" << flag(f.has_local_spill) << " name=" << f.name << "\n";
    os << "ret " << (f.return_type.empty() ? "-" : f.return_type) << "\n";
    for (const param_info& p : f.params) {
      std::string flags;
      auto add = [&](bool b, const char* n) {
        if (!b) return;
        if (!flags.empty()) flags += ',';
        flags += n;
      };
      add(p.is_context, "ctx");
      add(p.is_pool, "pool");
      add(p.is_params, "params");
      add(p.is_arena, "arena");
      add(p.is_spill, "spill");
      add(p.is_span, "span");
      os << "param flags=" << (flags.empty() ? "-" : flags)
         << " name=" << (p.name.empty() ? "-" : p.name)
         << " type=" << (p.type.empty() ? "-" : p.type) << "\n";
    }
    std::string calls;
    for (const std::string& c : f.calls) {
      if (!calls.empty()) calls += ',';
      calls += c;
    }
    os << "calls " << (calls.empty() ? "-" : calls) << "\n";
  }
  return os.str();
}

bool parse_index(std::string_view text, symbol_index& out) {
  std::istringstream is{std::string(text)};
  std::string line;
  func_entry* cur = nullptr;
  auto flag_of = [](const std::string& kv) { return kv.back() == '1'; };
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "files" || kind == "functions") continue;
    if (kind == "func") {
      func_entry fe;
      std::string lam, ptr, scope, alloc, spawn, dpool, spill, name;
      if (!(ls >> fe.file >> fe.line >> lam >> ptr >> scope >> alloc >>
            spawn >> dpool >> spill >> name)) {
        return false;
      }
      if (name.rfind("name=", 0) != 0) return false;
      fe.is_lambda = flag_of(lam);
      fe.returns_ptr_like = flag_of(ptr);
      fe.opens_arena_scope = flag_of(scope);
      fe.allocs_arena = flag_of(alloc);
      fe.spawns_parallel = flag_of(spawn);
      fe.calls_default_pool = flag_of(dpool);
      fe.has_local_spill = flag_of(spill);
      fe.name = name.substr(5);
      out.functions.push_back(fe);
      cur = &out.functions.back();
      continue;
    }
    if (cur == nullptr) return false;
    if (kind == "ret") {
      std::string rest;
      std::getline(ls, rest);
      size_t b = rest.find_first_not_of(' ');
      cur->return_type =
          (b == std::string::npos || rest.substr(b) == "-") ? ""
                                                            : rest.substr(b);
    } else if (kind == "param") {
      std::string flags, name;
      ls >> flags >> name;
      if (flags.rfind("flags=", 0) != 0 || name.rfind("name=", 0) != 0)
        return false;
      param_info p;
      std::string fl = flags.substr(6);
      p.is_context = fl.find("ctx") != std::string::npos;
      p.is_pool = fl.find("pool") != std::string::npos;
      p.is_params = fl.find("params") != std::string::npos;
      p.is_arena = fl.find("arena") != std::string::npos;
      p.is_spill = fl.find("spill") != std::string::npos;
      p.is_span = fl.find("span") != std::string::npos;
      p.name = name.substr(5) == "-" ? "" : name.substr(5);
      std::string rest;
      std::getline(ls, rest);
      size_t b = rest.find("type=");
      if (b == std::string::npos) return false;
      std::string ty = rest.substr(b + 5);
      p.type = ty == "-" ? "" : ty;
      cur->params.push_back(p);
    } else if (kind == "calls") {
      std::string rest;
      ls >> rest;
      if (rest != "-") {
        std::stringstream cs(rest);
        std::string one;
        while (std::getline(cs, one, ',')) cur->calls.push_back(one);
      }
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace parsemi_check
