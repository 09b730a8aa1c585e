// The enzo-lint rule set (DESIGN.md §11).  Every rule is a token-level
// scan; shared helpers below provide bracket matching, a heuristic function
// finder (name + body range + ENZO_* annotations), and member-access tests.

#include <algorithm>
#include <array>
#include <cstddef>
#include <sstream>

#include "lint.hpp"

namespace enzo::lint {

namespace {

using Toks = std::vector<Token>;

bool is_ident(const Toks& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].kind == TokKind::kIdent && t[i].text == text;
}
bool is_punct(const Toks& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].kind == TokKind::kPunct && t[i].text == text;
}
/// True when token i is reached through `.` or `->` (member access).
bool is_member(const Toks& t, std::size_t i) {
  return i > 0 && t[i - 1].kind == TokKind::kPunct &&
         (t[i - 1].text == "." || t[i - 1].text == "->");
}
bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

/// Index of the matching closer for the opener at i ('(' / '{' / '['),
/// or t.size() when unbalanced.
std::size_t match_bracket(const Toks& t, std::size_t i) {
  const std::string& open = t[i].text;
  const std::string close = open == "(" ? ")" : open == "{" ? "}" : "]";
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (t[j].kind != TokKind::kPunct) continue;
    if (t[j].text == open) ++depth;
    if (t[j].text == close && --depth == 0) return j;
  }
  return t.size();
}

/// Skip a template argument list: i indexes '<'.  Returns the index just
/// past the matching '>', or i+1 when this is not a template bracket
/// (hit ';' '{' or end first).  ">>" closes two levels.
std::size_t skip_template(const Toks& t, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (t[j].kind != TokKind::kPunct) continue;
    if (t[j].text == "<") ++depth;
    if (t[j].text == ">") {
      if (--depth == 0) return j + 1;
    }
    if (t[j].text == ">>") {
      depth -= 2;
      if (depth <= 0) return j + 1;
    }
    if (t[j].text == ";" || t[j].text == "{") break;
  }
  return i + 1;
}

// ---------------------------------------------------------------------------
// Function finder
// ---------------------------------------------------------------------------

struct FuncDef {
  std::string name;
  int line = 0;
  std::size_t body_begin = 0;  ///< index of '{'
  std::size_t body_end = 0;    ///< index of matching '}'
  std::set<std::string> annotations;  ///< ENZO_* idents in the signature
};

const std::set<std::string>& control_keywords() {
  static const std::set<std::string> kw = {
      "if",     "for",      "while",    "switch",   "catch",
      "return", "sizeof",   "alignof",  "decltype", "constexpr",
      "assert", "static_assert", "defined", "alignas", "noexcept"};
  return kw;
}

std::vector<FuncDef> find_functions(const SourceFile& f) {
  const Toks& t = f.tokens;
  std::vector<FuncDef> out;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_punct(t, i, "(")) continue;
    if (i == 0 || t[i - 1].kind != TokKind::kIdent) continue;
    if (control_keywords().count(t[i - 1].text)) continue;
    const std::size_t close = match_bracket(t, i);
    if (close >= t.size()) continue;
    // Skip trailing qualifiers; accept ctor init lists and trailing returns.
    std::size_t j = close + 1;
    bool plausible = true;
    while (j < t.size()) {
      if (t[j].kind == TokKind::kIdent &&
          (t[j].text == "const" || t[j].text == "noexcept" ||
           t[j].text == "override" || t[j].text == "final" ||
           t[j].text == "mutable")) {
        ++j;
      } else if (is_punct(t, j, "->") || is_punct(t, j, ":")) {
        // Trailing return type / ctor init list: scan to the body brace.
        int pd = 0;
        ++j;
        while (j < t.size()) {
          if (is_punct(t, j, "(")) ++pd;
          if (is_punct(t, j, ")")) --pd;
          if (is_punct(t, j, ";")) { plausible = false; break; }
          if (is_punct(t, j, "{") && pd == 0) break;
          ++j;
        }
        break;
      } else {
        break;
      }
    }
    if (!plausible || j >= t.size() || !is_punct(t, j, "{")) continue;
    FuncDef fd;
    fd.name = t[i - 1].text;
    fd.line = t[i - 1].line;
    fd.body_begin = j;
    fd.body_end = match_bracket(t, j);
    // Annotations: ENZO_* identifiers between the previous statement/brace
    // boundary and the function name.
    for (std::size_t k = i - 1; k-- > 0;) {
      if (t[k].kind == TokKind::kPunct &&
          (t[k].text == ";" || t[k].text == "{" || t[k].text == "}"))
        break;
      if (t[k].kind == TokKind::kIdent && starts_with(t[k].text, "ENZO_"))
        fd.annotations.insert(t[k].text);
    }
    out.push_back(std::move(fd));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Finding plumbing
// ---------------------------------------------------------------------------

std::string normalize(const std::string& line) {
  std::string out;
  bool ws = false;
  for (char c : line) {
    if (c == ' ' || c == '\t') {
      ws = !out.empty();
      continue;
    }
    if (ws) out += ' ';
    ws = false;
    out += c;
  }
  return out;
}

bool allowed(const SourceFile& f, int line, const std::string& rule) {
  for (int l : {line, line - 1}) {
    auto it = f.allows.find(l);
    if (it != f.allows.end() &&
        (it->second.count(rule) || it->second.count("all")))
      return true;
  }
  auto it = f.allows.find(0);  // file-wide allow-file(...)
  return it != f.allows.end() &&
         (it->second.count(rule) || it->second.count("all"));
}

void emit(const SourceFile& f, std::vector<Finding>* out, const char* rule,
          int line, std::string message) {
  if (allowed(f, line, rule)) return;
  Finding fi;
  fi.rule = rule;
  fi.rel = f.rel;
  fi.line = line;
  fi.message = std::move(message);
  if (line >= 1 && static_cast<std::size_t>(line) <= f.lines.size())
    fi.norm = normalize(f.lines[static_cast<std::size_t>(line) - 1]);
  out->push_back(std::move(fi));
}

// ---------------------------------------------------------------------------
// Rule: determinism-unordered-iteration
// ---------------------------------------------------------------------------
// Iterating a hash container observes bucket order — a function of pointer
// values and library version — so results that feed physics, serialization,
// or reductions are not reproducible.  Lookups are fine; iteration is not.

constexpr const char* kRuleUnordered = "determinism-unordered-iteration";

void rule_unordered_iteration(const SourceFile& f,
                              std::vector<Finding>* out) {
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  const Toks& t = f.tokens;
  std::set<std::string> vars;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || !kUnordered.count(t[i].text)) continue;
    if (!is_punct(t, i + 1, "<")) continue;
    std::size_t j = skip_template(t, i + 1);
    while (j < t.size() && (is_punct(t, j, "&") || is_punct(t, j, "*") ||
                            is_ident(t, j, "const")))
      ++j;
    if (j < t.size() && t[j].kind == TokKind::kIdent) vars.insert(t[j].text);
  }
  if (vars.empty()) return;
  for (std::size_t i = 0; i < t.size(); ++i) {
    // Range-for whose range expression names an unordered container.
    if (is_ident(t, i, "for") && is_punct(t, i + 1, "(")) {
      const std::size_t close = match_bracket(t, i + 1);
      std::size_t colon = 0;
      for (std::size_t j = i + 2; j < close; ++j)
        if (is_punct(t, j, ":")) {
          colon = j;
          break;
        }
      if (colon == 0) continue;
      for (std::size_t j = colon + 1; j < close; ++j)
        if (t[j].kind == TokKind::kIdent && vars.count(t[j].text)) {
          emit(f, out, kRuleUnordered, t[i].line,
               "range-for over hash container '" + t[j].text +
                   "': bucket order is nondeterministic; iterate a sorted "
                   "key list or an ordinal index instead");
          break;
        }
    }
    // Explicit iteration: var.begin() / var.cbegin().
    if (t[i].kind == TokKind::kIdent && vars.count(t[i].text) &&
        is_punct(t, i + 1, ".") && i + 2 < t.size() &&
        (t[i + 2].text == "begin" || t[i + 2].text == "cbegin" ||
         t[i + 2].text == "rbegin")) {
      emit(f, out, kRuleUnordered, t[i].line,
           "iterator over hash container '" + t[i].text +
               "': bucket order is nondeterministic");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: determinism-grid-fp-accumulation
// ---------------------------------------------------------------------------
// Floating-point addition does not associate; accumulating across a grid
// loop bakes the iteration/schedule order into the result.  Parallel-phase
// reductions must go through exec::reduce_ordered; genuinely serial
// passes carry an allow-directive stating the contract.

constexpr const char* kRuleFpAccum = "determinism-grid-fp-accumulation";

void rule_grid_fp_accumulation(const SourceFile& f,
                               std::vector<Finding>* out) {
  const Toks& t = f.tokens;
  // Every declaration line per name, so shadowing declarations inside the
  // loop body are distinguishable from the outer accumulator.
  std::map<std::string, std::vector<int>> fp_decls;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t, i, "double") && !is_ident(t, i, "float")) continue;
    std::size_t j = i + 1;
    while (j < t.size() && (is_punct(t, j, "&") || is_punct(t, j, "*"))) ++j;
    if (j < t.size() && t[j].kind == TokKind::kIdent)
      fp_decls[t[j].text].push_back(t[j].line);
  }
  if (fp_decls.empty()) return;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t, i, "for") || !is_punct(t, i + 1, "(")) continue;
    const std::size_t close = match_bracket(t, i + 1);
    bool over_grids = false;
    for (std::size_t j = i + 2; j < close; ++j)
      if (is_ident(t, j, "grids") || is_ident(t, j, "level_grids"))
        over_grids = true;
    if (!over_grids || close + 1 >= t.size() ||
        !is_punct(t, close + 1, "{"))
      continue;
    const std::size_t body_end = match_bracket(t, close + 1);
    for (std::size_t j = close + 2; j < body_end; ++j) {
      if (t[j].kind != TokKind::kIdent) continue;
      auto it = fp_decls.find(t[j].text);
      if (it == fp_decls.end()) continue;
      // The declaration in effect here is the last one at or before this
      // use; only accumulators declared *before* the loop matter.
      int decl = -1;
      for (int dl : it->second)
        if (dl <= t[j].line) decl = dl;
      if (decl < 0 || decl >= t[i].line) continue;
      if (j + 1 < t.size() &&
          (is_punct(t, j + 1, "+=") || is_punct(t, j + 1, "-="))) {
        emit(f, out, kRuleFpAccum, t[j].line,
             "floating-point accumulation into '" + t[j].text +
                 "' across a grid loop: route through exec::reduce_ordered "
                 "or state the serial contract with an allow-directive");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: determinism-nondeterministic-source
// ---------------------------------------------------------------------------
// Wall clocks, entropy sources, and pointer-value arithmetic leak run-to-run
// state into results.  Telemetry code (src/perf, src/util/timer) is the
// sanctioned home for clocks.

constexpr const char* kRuleNondet = "determinism-nondeterministic-source";

void rule_nondeterministic_source(const SourceFile& f,
                                  std::vector<Finding>* out) {
  if (starts_with(f.rel, "src/perf/") ||
      starts_with(f.rel, "src/util/timer."))
    return;
  static const std::set<std::string> kBanned = {
      "rand",          "srand",         "drand48",
      "lrand48",       "random_device", "system_clock",
      "high_resolution_clock",          "steady_clock",
      "uintptr_t",     "intptr_t"};
  const Toks& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || is_member(t, i)) continue;
    if (kBanned.count(t[i].text)) {
      emit(f, out, kRuleNondet, t[i].line,
           "'" + t[i].text +
               "' is a nondeterministic source (clock/entropy/pointer "
               "value); physics and serialization must be reproducible");
    } else if (t[i].text == "time" && is_punct(t, i + 1, "(") &&
               i + 2 < t.size() &&
               (t[i + 2].text == "nullptr" || t[i + 2].text == "NULL" ||
                t[i + 2].text == "0" || t[i + 2].text == "&")) {
      // `time(nullptr)`-style seeding only; `double time() const` members
      // and calls to them are fine.
      emit(f, out, kRuleNondet, t[i].line,
           "time() seeds results with wall-clock state");
    }
  }
}

// ---------------------------------------------------------------------------
// Rules: hotpath-heap-alloc / hotpath-lock
// ---------------------------------------------------------------------------
// Inside ENZO_HOT bodies (per-cell / per-pencil kernel code) heap traffic
// and lock acquisition are forbidden: scratch must be preallocated and
// capacity-reusing (PencilBatch::reset, ppm scratch), and synchronization
// belongs to the executor layer, not kernels.  A metrics-registry lookup
// by name (`Registry::global().counter(...)`, `.gauge`, `.histogram`)
// takes the registry mutex, so it counts as a lock unless it initializes a
// function-local static reference, which looks up once.

constexpr const char* kRuleHotAlloc = "hotpath-heap-alloc";
constexpr const char* kRuleHotLock = "hotpath-lock";

/// True when token i starts `Registry::global().counter(` (or `.gauge(` /
/// `.histogram(`): a registry lookup by name.
bool is_registry_lookup(const Toks& t, std::size_t i) {
  return is_ident(t, i, "Registry") && is_punct(t, i + 1, "::") &&
         is_ident(t, i + 2, "global") && is_punct(t, i + 3, "(") &&
         is_punct(t, i + 4, ")") && is_punct(t, i + 5, ".") &&
         (is_ident(t, i + 6, "counter") || is_ident(t, i + 6, "gauge") ||
          is_ident(t, i + 6, "histogram")) &&
         is_punct(t, i + 7, "(");
}

/// True when the registry lookup whose `Registry` token is at i initializes
/// a static reference: `static T& name = [ns::]Registry::global()...`.
bool initializes_static_ref(const Toks& t, std::size_t i) {
  std::size_t j = i;
  while (j >= 2 && is_punct(t, j - 1, "::") && t[j - 2].kind == TokKind::kIdent)
    j -= 2;
  if (j == 0 || !is_punct(t, j - 1, "=")) return false;
  // Walk back from the '=' to the first token of the statement.
  std::size_t k = j - 1;
  bool ref = false;
  while (k > 0 && !is_punct(t, k - 1, ";") && !is_punct(t, k - 1, "{") &&
         !is_punct(t, k - 1, "}")) {
    --k;
    if (is_punct(t, k, "&")) ref = true;
  }
  return ref && is_ident(t, k, "static");
}

void rule_hotpath(const SourceFile& f, const std::vector<FuncDef>& funcs,
                  std::vector<Finding>* out) {
  static const std::set<std::string> kGrowth = {
      "push_back", "emplace_back", "emplace",   "resize",
      "reserve",   "insert",       "append",    "push_front"};
  static const std::set<std::string> kAllocTypes = {
      "vector", "string", "deque",  "list",         "map",
      "set",    "multimap", "multiset",
      "unordered_map",      "unordered_set",        "function",
      "stringstream",       "ostringstream",        "shared_ptr",
      "unique_ptr"};
  static const std::set<std::string> kAllocCalls = {
      "malloc", "calloc", "realloc", "strdup", "to_string", "make_unique",
      "make_shared"};
  static const std::set<std::string> kLockTypes = {
      "mutex",       "timed_mutex", "recursive_mutex",    "lock_guard",
      "unique_lock", "scoped_lock", "shared_lock",        "condition_variable",
      "condition_variable_any"};
  const Toks& t = f.tokens;
  for (const FuncDef& fd : funcs) {
    if (!fd.annotations.count("ENZO_HOT")) continue;
    for (std::size_t i = fd.body_begin + 1; i < fd.body_end; ++i) {
      if (t[i].kind != TokKind::kIdent) continue;
      const std::string& s = t[i].text;
      if (s == "new" && !is_member(t, i)) {
        emit(f, out, kRuleHotAlloc, t[i].line,
             "heap allocation (new) inside ENZO_HOT '" + fd.name + "'");
      } else if (!is_member(t, i) && kAllocCalls.count(s)) {
        emit(f, out, kRuleHotAlloc, t[i].line,
             "allocating call '" + s + "' inside ENZO_HOT '" + fd.name + "'");
      } else if (is_member(t, i) && kGrowth.count(s) &&
                 is_punct(t, i + 1, "(")) {
        emit(f, out, kRuleHotAlloc, t[i].line,
             "container growth '." + s + "()' inside ENZO_HOT '" + fd.name +
                 "' — preallocate or reuse capacity (assign) outside the "
                 "hot region");
      } else if (!is_member(t, i) && kAllocTypes.count(s)) {
        // Allocating local/temporary: type< args > name | type< args > (
        std::size_t j = i + 1;
        if (is_punct(t, j, "<")) j = skip_template(t, j);
        else if (s == "vector" || s == "map" || s == "set") continue;
        if (j < t.size() && (is_punct(t, j, "&") || is_punct(t, j, "*") ||
                             is_punct(t, j, "::")))
          continue;  // reference/pointer/nested-name — no allocation here
        if (j < t.size() &&
            (t[j].kind == TokKind::kIdent || is_punct(t, j, "("))) {
          emit(f, out, kRuleHotAlloc, t[i].line,
               "allocating local of type '" + s + "' inside ENZO_HOT '" +
                   fd.name + "' — use preallocated scratch");
        }
      }
      if ((kLockTypes.count(s) && !is_member(t, i)) ||
          (is_member(t, i) && is_punct(t, i + 1, "(") &&
           (s == "lock" || s == "unlock" || s == "try_lock"))) {
        emit(f, out, kRuleHotLock, t[i].line,
             "lock use '" + s + "' inside ENZO_HOT '" + fd.name +
                 "' — synchronization belongs to the executor layer");
      }
      if (is_registry_lookup(t, i) && !initializes_static_ref(t, i)) {
        emit(f, out, kRuleHotLock, t[i].line,
             "registry lookup '" + t[i + 6].text + "()' inside ENZO_HOT '" +
                 fd.name +
                 "' takes the registry mutex — cache it in a static "
                 "reference");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: hotpath-transcendental
// ---------------------------------------------------------------------------
// A libm transcendental (`pow`, `exp`, `log`, …) inside a loop in an
// ENZO_HOT body is the per-cell fit evaluation the kernel layer replaced: it
// serializes the loop on a scalar libm call and blocks autovectorization of
// everything around it.  Temperature-dependent coefficients come from a
// table sampled from the fits once (chemistry's coefficient table, read by
// RateBatch and cooling_rate_batch with one log per cell); a loop that must
// keep a libm call carries an allow-directive on its header, which exempts
// the whole loop body.

constexpr const char* kRuleHotTrans = "hotpath-transcendental";

void rule_hotpath_transcendental(const SourceFile& f,
                                 const std::vector<FuncDef>& funcs,
                                 std::vector<Finding>* out) {
  static const std::set<std::string> kTrans = {"pow", "exp",  "expm1",
                                               "log", "log10", "log2",
                                               "log1p"};
  const Toks& t = f.tokens;
  for (const FuncDef& fd : funcs) {
    if (!fd.annotations.count("ENZO_HOT")) continue;
    for (std::size_t i = fd.body_begin + 1; i < fd.body_end; ++i) {
      if ((!is_ident(t, i, "for") && !is_ident(t, i, "while")) ||
          !is_punct(t, i + 1, "("))
        continue;
      const std::size_t close = match_bracket(t, i + 1);
      if (close >= fd.body_end) continue;
      // Loop body extent: braced block, or single statement to ';' (a
      // nested braced `for` chain counts as the statement).
      std::size_t begin, end;
      if (close + 1 < t.size() && is_punct(t, close + 1, "{")) {
        begin = close + 2;
        end = match_bracket(t, close + 1);
      } else {
        begin = close + 1;
        end = begin;
        while (end < fd.body_end && !is_punct(t, end, ";")) {
          if (is_punct(t, end, "{")) {
            end = match_bracket(t, end);
            break;
          }
          ++end;
        }
      }
      // An allow-directive on the loop header marks a deliberately batched
      // lane loop and covers every call in its body (the per-finding check
      // cannot reach continuation lines of multi-line expressions).
      if (allowed(f, t[i].line, kRuleHotTrans)) {
        i = end;
        continue;
      }
      for (std::size_t j = begin; j < end && j < t.size(); ++j) {
        if (t[j].kind != TokKind::kIdent || is_member(t, j)) continue;
        if (!kTrans.count(t[j].text) || !is_punct(t, j + 1, "(")) continue;
        emit(f, out, kRuleHotTrans, t[j].line,
             "per-cell '" + t[j].text + "' inside a loop in ENZO_HOT '" +
                 fd.name +
                 "' — tabulate it once and interpolate (see chemistry's "
                 "coefficient table) or annotate the loop header");
      }
      i = end;  // inner loops were just scanned; don't re-report them
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: topology-allpairs
// ---------------------------------------------------------------------------
// Overlap queries go through mesh::OverlapTopology (PR 5): an inner scan of
// a level's grid list nested inside another grid sweep is the O(grids²)
// pattern the cache replaced.  Only src/mesh/topology.cpp (the cache's own
// build) and hierarchy.cpp are exempt; no src file carries an allow
// directive for this rule, and the all-pairs references the cache is
// checked against live in tests/mesh_test.cpp.

constexpr const char* kRuleAllPairs = "topology-allpairs";

void rule_topology_allpairs(const SourceFile& f, std::vector<Finding>* out) {
  if (f.rel == "src/mesh/topology.cpp" || f.rel == "src/mesh/hierarchy.cpp")
    return;
  const Toks& t = f.tokens;
  struct Sweep {
    std::size_t begin, end;  ///< token extent that encloses nested scans
  };
  std::vector<Sweep> sweeps;        // grid for-loops + executor phases
  std::vector<std::size_t> loops;   // indices of grid for-loop `for` tokens
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (is_ident(t, i, "for") && is_punct(t, i + 1, "(")) {
      const std::size_t close = match_bracket(t, i + 1);
      bool over_grids = false;
      for (std::size_t j = i + 2; j < close; ++j)
        if (is_ident(t, j, "grids") || is_ident(t, j, "level_grids"))
          over_grids = true;
      if (!over_grids) continue;
      std::size_t end = close;
      if (close + 1 < t.size() && is_punct(t, close + 1, "{")) {
        end = match_bracket(t, close + 1);
      } else {
        // Single-statement body: runs to ';' or to the close of the first
        // balanced brace block (a nested `for (...) { ... }` chain has no
        // trailing semicolon).
        std::size_t j = close + 1;
        while (j < t.size() && !is_punct(t, j, ";")) {
          if (is_punct(t, j, "{")) {
            j = match_bracket(t, j);
            break;
          }
          ++j;
        }
        end = j;
      }
      loops.push_back(i);
      sweeps.push_back({i, end});
    } else if ((is_ident(t, i, "for_each") ||
                is_ident(t, i, "reduce_ordered")) &&
               is_punct(t, i + 1, "(")) {
      // Executor phase over a level's grids: its lambda argument is a
      // per-grid body, so a grid scan inside is all-pairs.
      sweeps.push_back({i, match_bracket(t, i + 1)});
    }
  }
  for (std::size_t li : loops) {
    for (const Sweep& s : sweeps) {
      if (li > s.begin && li < s.end) {
        emit(f, out, kRuleAllPairs, t[li].line,
             "grid-list scan nested inside another grid sweep (O(grids²)): "
             "query mesh::OverlapTopology instead");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: units-untagged-boundary
// ---------------------------------------------------------------------------

constexpr const char* kRuleUnits = "units-untagged-boundary";

void rule_units_boundary(const SourceFile& f,
                         const std::vector<FuncDef>& funcs,
                         std::vector<Finding>* out) {
  static const std::set<std::string> kConversions = {
      "proper_density", "velocity_cgs", "temperature_factor", "mass_g",
      "comoving_matter_density"};
  const Toks& t = f.tokens;
  for (const FuncDef& fd : funcs) {
    std::string conv;
    for (std::size_t i = fd.body_begin + 1; i < fd.body_end; ++i)
      if (t[i].kind == TokKind::kIdent && kConversions.count(t[i].text)) {
        conv = t[i].text;
        break;
      }
    if (conv.empty()) continue;
    const bool tagged_boundary = fd.annotations.count("ENZO_UNITS_BOUNDARY") ||
                                 fd.annotations.count("ENZO_UNITS_PROPER");
    const bool tagged_comoving = fd.annotations.count("ENZO_UNITS_COMOVING");
    if (tagged_comoving) {
      emit(f, out, kRuleUnits, fd.line,
           "'" + fd.name + "' is tagged ENZO_UNITS_COMOVING but calls the "
               "comoving→proper conversion '" + conv + "'");
    } else if (!tagged_boundary) {
      emit(f, out, kRuleUnits, fd.line,
           "'" + fd.name + "' crosses the comoving/proper unit boundary ('" +
               conv + "') without an ENZO_UNITS_BOUNDARY/_PROPER tag");
    }
  }
}

// ---------------------------------------------------------------------------
// Rules: banned APIs
// ---------------------------------------------------------------------------

constexpr const char* kRulePrintf = "banned-printf";
constexpr const char* kRuleAssert = "banned-assert";
constexpr const char* kRulePi = "banned-pi-literal";

void rule_banned_apis(const SourceFile& f, std::vector<Finding>* out) {
  static const std::set<std::string> kIo = {"printf", "fprintf", "vprintf",
                                            "vfprintf", "puts", "fputs",
                                            "cout", "cerr", "clog"};
  const bool log_impl = starts_with(f.rel, "src/perf/log.");
  const Toks& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& s = t[i].text;
    if (!log_impl && kIo.count(s) && !is_member(t, i)) {
      emit(f, out, kRulePrintf, t[i].line,
           "raw output via '" + s +
               "': route diagnostics through perf::StructuredLog");
    }
    if (s == "assert" && is_punct(t, i + 1, "(") && !is_member(t, i)) {
      emit(f, out, kRuleAssert, t[i].line,
           "raw assert() aborts the process: use ENZO_REQUIRE (throws "
           "enzo::Error, testable)");
    }
    if (s == "M_PI" && f.rel != "src/util/constants.hpp") {
      emit(f, out, kRulePi, t[i].line,
           "M_PI is a POSIX extension (not portable C++): use "
           "constants::kPi / kTwoPi / kFourPi");
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kRules = {
      {kRuleUnordered,
       "no iteration over unordered containers where order can feed results"},
      {kRuleFpAccum,
       "per-grid floating-point reductions go through exec::reduce_ordered"},
      {kRuleNondet,
       "no clocks, entropy, or pointer-value arithmetic outside telemetry"},
      {kRuleHotAlloc, "no heap allocation inside ENZO_HOT kernel bodies"},
      {kRuleHotLock, "no locking inside ENZO_HOT kernel bodies"},
      {kRuleHotTrans,
       "per-cell libm transcendentals in ENZO_HOT loops come from a table "
       "or an annotated loop"},
      {kRuleAllPairs,
       "overlap queries use mesh::OverlapTopology, not nested grid scans"},
      {kRuleUnits,
       "comoving/proper unit-frame crossings carry ENZO_UNITS_* tags"},
      {kRulePrintf, "diagnostics go through perf::StructuredLog"},
      {kRuleAssert, "library code uses ENZO_REQUIRE, not assert()"},
      {kRulePi, "pi comes from util/constants, not M_PI"},
  };
  return kRules;
}

std::vector<Finding> run_rules(const SourceFile& f) {
  std::vector<Finding> out;
  const std::vector<FuncDef> funcs = find_functions(f);
  rule_unordered_iteration(f, &out);
  rule_grid_fp_accumulation(f, &out);
  rule_nondeterministic_source(f, &out);
  rule_hotpath(f, funcs, &out);
  rule_hotpath_transcendental(f, funcs, &out);
  rule_topology_allpairs(f, &out);
  rule_units_boundary(f, funcs, &out);
  rule_banned_apis(f, &out);
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.rel != b.rel) return a.rel < b.rel;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

}  // namespace enzo::lint
