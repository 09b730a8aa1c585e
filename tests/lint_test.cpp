// enzo-lint rule tests: one true-positive and one negative fixture per rule,
// suppression-directive and baseline semantics, and a whole-repo smoke run
// (every finding in src/ must be covered by the shipped baseline).
//
// Fixtures are C++ source held in raw strings; the `rel` path passed to the
// linter drives the built-in allowlists, so a fixture can masquerade as any
// repo file (e.g. src/perf/log.cpp to exercise the printf allowlist).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

using namespace enzo::lint;

namespace {

std::vector<Finding> lint_src(const std::string& rel, const std::string& text) {
  SourceFile f;
  f.path = rel;
  f.rel = rel;
  lex(text, &f);
  return run_rules(f);
}

int count_rule(const std::vector<Finding>& fs, const std::string& rule) {
  return static_cast<int>(
      std::count_if(fs.begin(), fs.end(),
                    [&](const Finding& fi) { return fi.rule == rule; }));
}

}  // namespace

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LintLexer, StripsCommentsStringsAndPreprocessor) {
  SourceFile f;
  lex("#include <cstdio>\n"
      "// printf in a comment\n"
      "/* assert(1) in a block comment */\n"
      "const char* s = \"printf inside a string\";\n",
      &f);
  for (const Token& t : f.tokens) {
    EXPECT_NE(t.text, "printf");
    EXPECT_NE(t.text, "assert");
    EXPECT_NE(t.text, "include");
  }
}

TEST(LintLexer, ParsesAllowDirectives) {
  SourceFile f;
  lex("int a;\n"
      "int b;  // enzo-lint: allow(banned-assert) reason here\n"
      "// enzo-lint: allow-file(banned-printf) logging shim\n",
      &f);
  ASSERT_TRUE(f.allows.count(2));
  EXPECT_TRUE(f.allows.at(2).count("banned-assert"));
  ASSERT_TRUE(f.allows.count(0));  // line 0 = file-wide
  EXPECT_TRUE(f.allows.at(0).count("banned-printf"));
}

// ---------------------------------------------------------------------------
// Determinism rules
// ---------------------------------------------------------------------------

TEST(LintRules, UnorderedIterationFlagged) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    void emit(std::unordered_map<int, double>& m, Writer& w) {
      for (const auto& kv : m) w.write(kv.second);
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "determinism-unordered-iteration"), 1);
}

TEST(LintRules, OrderedIterationNotFlagged) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    void emit(std::map<int, double>& m, std::unordered_map<int, double>& lut,
              Writer& w) {
      for (const auto& kv : m) w.write(kv.second + lut.at(kv.first));
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "determinism-unordered-iteration"), 0);
}

TEST(LintRules, GridFpAccumulationFlagged) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    double total_mass(const Hierarchy& h) {
      double sum = 0.0;
      for (const Grid* g : h.grids(0)) {
        sum += g->mass();
      }
      return sum;
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "determinism-grid-fp-accumulation"), 1);
}

TEST(LintRules, PerGridAccumulatorNotFlagged) {
  // The accumulator lives inside the grid loop: per-grid arithmetic is
  // deterministic regardless of task order.
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    void per_grid(const Hierarchy& h) {
      for (const Grid* g : h.grids(0)) {
        double cell_sum = 0.0;
        cell_sum += g->mass();
        publish(g, cell_sum);
      }
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "determinism-grid-fp-accumulation"), 0);
}

TEST(LintRules, NondeterministicSourceFlagged) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    int seed_from_entropy() {
      std::random_device rd;
      return static_cast<int>(rd());
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "determinism-nondeterministic-source"), 1);
}

TEST(LintRules, MemberNamedTimeNotFlagged) {
  // `double time() const` is an accessor, not ::time().
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    class Clocked {
     public:
      double time() const { return t_; }
     private:
      double t_ = 0.0;
    };
  )cpp");
  EXPECT_EQ(count_rule(fs, "determinism-nondeterministic-source"), 0);
}

TEST(LintRules, PerfTelemetryAllowlisted) {
  const auto fs = lint_src("src/perf/metrics.cpp", R"cpp(
    double wall_now() {
      return std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
          .count();
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "determinism-nondeterministic-source"), 0);
}

// ---------------------------------------------------------------------------
// Hot-path rules
// ---------------------------------------------------------------------------

TEST(LintRules, HotPathAllocationFlagged) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    ENZO_HOT void kernel(std::vector<double>& out) {
      std::vector<double> tmp(10, 0.0);
      out.push_back(tmp[0]);
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "hotpath-heap-alloc"), 2);
}

TEST(LintRules, ColdAllocationNotFlagged) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    void setup(std::vector<double>& out) {
      std::vector<double> tmp(10, 0.0);
      out.push_back(tmp[0]);
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "hotpath-heap-alloc"), 0);
}

TEST(LintRules, HotPathCapacityReuseNotFlagged) {
  // assign() reuses capacity — the sanctioned hot-path idiom.
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    ENZO_HOT void kernel(std::vector<double>& scratch, int n) {
      scratch.assign(n, 0.0);
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "hotpath-heap-alloc"), 0);
}

TEST(LintRules, HotPathLockFlagged) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    ENZO_HOT void kernel(std::mutex& m, double* x) {
      std::lock_guard<std::mutex> hold(m);
      *x += 1.0;
    }
  )cpp");
  EXPECT_GE(count_rule(fs, "hotpath-lock"), 1);
}

TEST(LintRules, ColdLockNotFlagged) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    void registry_update(std::mutex& m, double* x) {
      std::lock_guard<std::mutex> hold(m);
      *x += 1.0;
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "hotpath-lock"), 0);
}

TEST(LintRules, HotPathRegistryLookupFlagged) {
  // A lookup by name takes the registry mutex on every call.
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    ENZO_HOT void kernel(std::uint64_t n) {
      perf::Registry::global().counter("x.cells").add(n);
      auto& g = enzo::perf::Registry::global().gauge("x.live");
      g.set(1.0);
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "hotpath-lock"), 2);
}

TEST(LintRules, HotPathStaticRegistryReferenceNotFlagged) {
  // A static reference looks up once; a cold function may look up freely.
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    ENZO_HOT void kernel(std::uint64_t n) {
      static perf::Counter& c = perf::Registry::global().counter("x.cells");
      static Histogram& h = Registry::global().histogram("x.sizes");
      c.add(n);
      h.observe(n);
    }
    void report(std::uint64_t n) {
      perf::Registry::global().counter("x.reports").add(n);
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "hotpath-lock"), 0);
}

TEST(LintRules, HotPathTranscendentalInLoopFlagged) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    ENZO_HOT void kernel(int n, const double* t, double* k) {
      for (int i = 0; i < n; ++i) {
        k[i] = std::exp(-1.0 / t[i]) * std::pow(t[i], 0.5);
      }
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "hotpath-transcendental"), 2);
}

TEST(LintRules, HotPathTranscendentalOutsideLoopNotFlagged) {
  // A one-off hoisted evaluation before the loop is the sanctioned shape.
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    ENZO_HOT void kernel(int n, double t0, double* k) {
      const double k0 = std::exp(-1.0 / t0);
      for (int i = 0; i < n; ++i) k[i] = k0 * i;
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "hotpath-transcendental"), 0);
}

TEST(LintRules, HotPathTranscendentalLoopHeaderAllowCoversBody) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    ENZO_HOT void kernel(int n, const double* t, double* k) {
      // enzo-lint: allow(hotpath-transcendental) batched lane evaluation
      for (int i = 0; i < n; ++i) {
        k[i] = std::exp(-1.0 / t[i]);
      }
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "hotpath-transcendental"), 0);
}

TEST(LintRules, ColdTranscendentalNotFlagged) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    void table_build(int n, const double* t, double* k) {
      for (int i = 0; i < n; ++i) k[i] = std::pow(t[i], 0.5);
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "hotpath-transcendental"), 0);
}

// ---------------------------------------------------------------------------
// Topology routing
// ---------------------------------------------------------------------------

TEST(LintRules, NestedGridScanFlagged) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    void exchange(Hierarchy& h, int level) {
      for (Grid* g : h.grids(level)) {
        for (Grid* s : h.grids(level)) {
          copy_overlap(g, s);
        }
      }
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "topology-allpairs"), 1);
}

TEST(LintRules, SingleGridSweepNotFlagged) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    void sweep(Hierarchy& h, int level) {
      for (Grid* g : h.grids(level)) advance(g);
      for (Grid* g : h.grids(level)) finish(g);
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "topology-allpairs"), 0);
}

TEST(LintRules, TopologyBuilderAllowlisted) {
  const auto fs = lint_src("src/mesh/topology.cpp", R"cpp(
    void build(Hierarchy& h, int level) {
      for (Grid* g : h.grids(level))
        for (Grid* s : h.grids(level)) link(g, s);
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "topology-allpairs"), 0);
}

// ---------------------------------------------------------------------------
// Unit frames
// ---------------------------------------------------------------------------

TEST(LintRules, UntaggedUnitBoundaryFlagged) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    double sound_speed_cgs(const cosmology::CodeUnits& u, double cs_code) {
      return cs_code * u.velocity_cgs();
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "units-untagged-boundary"), 1);
}

TEST(LintRules, TaggedUnitBoundaryNotFlagged) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    ENZO_UNITS_BOUNDARY double sound_speed_cgs(const cosmology::CodeUnits& u,
                                               double cs_code) {
      return cs_code * u.velocity_cgs();
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "units-untagged-boundary"), 0);
}

TEST(LintRules, ComovingTagWithConversionFlagged) {
  // A function claiming to stay in the comoving frame must not convert.
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    ENZO_UNITS_COMOVING double rho_code(const cosmology::CodeUnits& u,
                                        double rho, double a) {
      return u.proper_density(rho, a);
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "units-untagged-boundary"), 1);
}

// ---------------------------------------------------------------------------
// Banned APIs
// ---------------------------------------------------------------------------

TEST(LintRules, PrintfFlagged) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    void report(int n) { printf("%d\n", n); }
  )cpp");
  EXPECT_EQ(count_rule(fs, "banned-printf"), 1);
}

TEST(LintRules, StructuredLogBackendAllowlisted) {
  const auto fs = lint_src("src/perf/log.cpp", R"cpp(
    void sink(const char* line) { fprintf(stderr, "%s\n", line); }
  )cpp");
  EXPECT_EQ(count_rule(fs, "banned-printf"), 0);
}

TEST(LintRules, RawAssertFlagged) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    void check(int n) { assert(n > 0); }
  )cpp");
  EXPECT_EQ(count_rule(fs, "banned-assert"), 1);
}

TEST(LintRules, EnzoRequireNotFlagged) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    void check(int n) { ENZO_REQUIRE(n > 0, "n must be positive"); }
  )cpp");
  EXPECT_EQ(count_rule(fs, "banned-assert"), 0);
}

TEST(LintRules, PiLiteralFlagged) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    double circumference(double r) { return 2.0 * M_PI * r; }
  )cpp");
  EXPECT_EQ(count_rule(fs, "banned-pi-literal"), 1);
}

TEST(LintRules, ConstantsHeaderMayDefinePi) {
  const auto fs = lint_src("src/util/constants.hpp", R"cpp(
    inline constexpr double kPi = M_PI;
  )cpp");
  EXPECT_EQ(count_rule(fs, "banned-pi-literal"), 0);
}

// ---------------------------------------------------------------------------
// Suppression directives
// ---------------------------------------------------------------------------

TEST(LintSuppression, SameLineAllow) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    void report(int n) {
      printf("%d\n", n);  // enzo-lint: allow(banned-printf) boot banner
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "banned-printf"), 0);
}

TEST(LintSuppression, PreviousLineAllow) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    void report(int n) {
      // enzo-lint: allow(banned-printf) boot banner
      printf("%d\n", n);
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "banned-printf"), 0);
}

TEST(LintSuppression, AllowFileCoversWholeFile) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    // enzo-lint: allow-file(banned-printf) CLI frontend
    void a(int n) { printf("%d\n", n); }
    void b(int n) { printf("%d\n", n); }
  )cpp");
  EXPECT_EQ(count_rule(fs, "banned-printf"), 0);
}

TEST(LintSuppression, AllowIsRuleSpecific) {
  const auto fs = lint_src("src/x/a.cpp", R"cpp(
    void report(int n) {
      printf("%d\n", n);  // enzo-lint: allow(banned-assert) wrong rule
    }
  )cpp");
  EXPECT_EQ(count_rule(fs, "banned-printf"), 1);
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

TEST(LintBaseline, RoundTripSuppressesExactlyOnce) {
  const std::string src = R"cpp(
    void report(int n) {
      printf("%d\n", n);
    }
  )cpp";
  const auto fs = lint_src("src/x/a.cpp", src);
  ASSERT_EQ(count_rule(fs, "banned-printf"), 1);

  Baseline bl;
  std::istringstream text(to_baseline(fs));
  std::string line;
  while (std::getline(text, line))
    if (!line.empty() && line[0] != '#') bl.entries.insert(line);

  std::size_t suppressed = 0;
  EXPECT_TRUE(bl.filter(fs, &suppressed).empty());
  EXPECT_EQ(suppressed, 1u);

  // A second occurrence of the same normalized line exceeds the budget.
  const auto twice = lint_src("src/x/a.cpp", R"cpp(
    void a(int n) {
      printf("%d\n", n);
    }
    void b(int n) {
      printf("%d\n", n);
    }
  )cpp");
  ASSERT_EQ(count_rule(twice, "banned-printf"), 2);
  EXPECT_EQ(bl.filter(twice, &suppressed).size(), 1u);
  EXPECT_EQ(suppressed, 1u);
}

TEST(LintBaseline, KeyIsLineNumberIndependent) {
  const auto a = lint_src("src/x/a.cpp",
                          "void f(int n) { printf(\"%d\", n); }\n");
  const auto b = lint_src("src/x/a.cpp",
                          "\n\n\nvoid f(int n) { printf(\"%d\", n); }\n");
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_NE(a[0].line, b[0].line);
  EXPECT_EQ(baseline_key(a[0]), baseline_key(b[0]));
}

// ---------------------------------------------------------------------------
// Catalog and whole-repo smoke
// ---------------------------------------------------------------------------

TEST(LintCatalog, ElevenRulesRegistered) {
  EXPECT_EQ(rule_catalog().size(), 11u);
}

TEST(LintSmoke, RepoSourcesCleanModuloBaseline) {
#ifndef ENZO_SOURCE_DIR
  GTEST_SKIP() << "ENZO_SOURCE_DIR not defined";
#else
  namespace fs = std::filesystem;
  const fs::path root(ENZO_SOURCE_DIR);
  ASSERT_TRUE(fs::exists(root / "src"));

  std::vector<Finding> all;
  for (fs::recursive_directory_iterator it(root / "src"), end; it != end;
       ++it) {
    if (!it->is_regular_file()) continue;
    const fs::path& p = it->path();
    if (p.extension() != ".cpp" && p.extension() != ".hpp" &&
        p.extension() != ".h")
      continue;
    SourceFile f;
    ASSERT_TRUE(load_file(p.string(), relativize(p.string(), root.string()),
                          &f))
        << p;
    for (Finding& fi : run_rules(f)) all.push_back(std::move(fi));
  }

  Baseline bl;
  std::string err;
  ASSERT_TRUE(
      bl.load((root / "tools/enzo_lint/baseline.txt").string(), &err))
      << err;
  std::size_t suppressed = 0;
  const auto fresh = bl.filter(all, &suppressed);
  for (const Finding& fi : fresh)
    ADD_FAILURE() << fi.rel << ":" << fi.line << ": [" << fi.rule << "] "
                  << fi.message;
  EXPECT_TRUE(fresh.empty());
#endif
}
