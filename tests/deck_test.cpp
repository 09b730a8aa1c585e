// Parameter-deck tests: parsing, validation (unknown keys, malformed
// values, line numbers), problem dispatch, and render round trips —
// including the shipped-deck suite that proves every key in every
// decks/*.enzo is parsed, rendered, and re-parsed losslessly.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "core/parameter_file.hpp"
#include "util/constants.hpp"

using namespace enzo;
using core::ParameterDeck;

namespace {
ParameterDeck parse(const std::string& text) {
  std::istringstream in(text);
  return core::parse_parameter_deck(in);
}

/// All shipped decks, sorted (tests run from the build tree; the source dir
/// is baked in by CMake).
std::vector<std::filesystem::path> shipped_decks() {
  std::vector<std::filesystem::path> out;
  for (const auto& e : std::filesystem::directory_iterator(
           std::string(ENZO_SOURCE_DIR) + "/decks"))
    if (e.path().extension() == ".enzo") out.push_back(e.path());
  std::sort(out.begin(), out.end());
  EXPECT_GE(out.size(), 7u) << "shipped decks went missing";
  return out;
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}
}  // namespace

TEST(Deck, ParsesFullCollapseDeck) {
  const auto d = parse(R"(
# comment line
ProblemType            = CollapseCloud
TopGridDimensions      = 16 16 16
RefineBy               = 2
MaximumRefinementLevel = 4   # trailing comment
RefineByJeansLength    = 8
ChemistryEnabled       = 1
GravityEnabled         = true
BoxSizeParsec          = 4.0
CloudOverdensity       = 12.5
StopSteps              = 7
)");
  EXPECT_EQ(d.problem, "CollapseCloud");
  EXPECT_EQ(d.config.hierarchy.root_dims, (mesh::Index3{16, 16, 16}));
  EXPECT_EQ(d.config.hierarchy.max_level, 4);
  EXPECT_DOUBLE_EQ(d.config.refinement.jeans_number, 8.0);
  EXPECT_TRUE(d.config.enable_chemistry);
  EXPECT_TRUE(d.config.enable_gravity);
  // ChemistryEnabled also switches on the full field list.
  EXPECT_EQ(d.config.hierarchy.fields.size(),
            mesh::chemistry_field_list().size());
  EXPECT_NEAR(d.collapse.box_proper_cm, 4.0 * constants::kParsec, 1e6);
  EXPECT_DOUBLE_EQ(d.collapse.overdensity, 12.5);
  EXPECT_EQ(d.stop_steps, 7);
}

TEST(Deck, OneDimensionalDims) {
  const auto d = parse("TopGridDimensions = 128\n");
  EXPECT_EQ(d.config.hierarchy.root_dims, (mesh::Index3{128, 1, 1}));
}

TEST(Deck, UnknownKeyReportsLineNumber) {
  try {
    parse("Gamma = 1.4\nNotAKey = 3\n");
    FAIL() << "should have thrown";
  } catch (const enzo::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos);
    EXPECT_NE(msg.find("NotAKey"), std::string::npos);
  }
}

TEST(Deck, MalformedValuesRejected) {
  EXPECT_THROW(parse("Gamma = abc\n"), enzo::Error);
  EXPECT_THROW(parse("MaximumRefinementLevel = 2.5\n"), enzo::Error);
  EXPECT_THROW(parse("ChemistryEnabled = maybe\n"), enzo::Error);
  EXPECT_THROW(parse("Gamma 1.4\n"), enzo::Error);       // missing '='
  EXPECT_THROW(parse("= 3\n"), enzo::Error);             // empty key
  EXPECT_THROW(parse("Gamma =\n"), enzo::Error);         // empty value
  EXPECT_THROW(parse("TopGridDimensions = 8 8 8 8\n"), enzo::Error);
  EXPECT_THROW(parse("ProblemType = FirstStar\n"), enzo::Error);
  EXPECT_THROW(parse("HydroMethod = MUSCL\n"), enzo::Error);
}

TEST(Deck, CosmologyKeysMapThrough) {
  const auto d = parse(R"(
ProblemType         = Cosmology
ComovingCoordinates = 1
HubbleConstantNow   = 0.5
OmegaMatterNow      = 1.0
OmegaBaryonNow      = 0.06
Sigma8              = 0.7
InitialRedshift     = 30
ComovingBoxSizeMpc  = 2.0
RandomSeed          = 99
NestedStaticLevels  = 2
)");
  EXPECT_TRUE(d.config.comoving);
  EXPECT_DOUBLE_EQ(d.config.frw.sigma8, 0.7);
  EXPECT_NEAR(d.cosmology.box_comoving_cm, 2.0 * constants::kMpc, 1e10);
  EXPECT_EQ(d.cosmology.seed, 99u);
  EXPECT_EQ(d.cosmology.nested_static_levels, 2);
}

TEST(Deck, SetupDispatchesSod) {
  auto d = parse(R"(
ProblemType       = SodTube
TopGridDimensions = 64
Gamma             = 1.4
)");
  core::Simulation sim(d.config);
  core::setup_from_deck(sim, d);
  EXPECT_EQ(sim.hierarchy().total_cells(), 64);
  EXPECT_FALSE(sim.config().hierarchy.periodic);
  // The diaphragm is set up.
  mesh::Grid* g = sim.hierarchy().grids(0)[0];
  EXPECT_DOUBLE_EQ(g->field(mesh::Field::kDensity)(g->sx(10), 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(g->field(mesh::Field::kDensity)(g->sx(50), 0, 0), 0.125);
}

TEST(Deck, SetupDispatchesUniformAndRuns) {
  auto d = parse(R"(
ProblemType           = Uniform
TopGridDimensions     = 8 8 8
UniformDensity        = 2.5
UniformInternalEnergy = 0.7
StopSteps             = 2
)");
  core::Simulation sim(d.config);
  core::setup_from_deck(sim, d);
  for (int s = 0; s < d.stop_steps; ++s) sim.advance_root_step();
  mesh::Grid* g = sim.hierarchy().grids(0)[0];
  EXPECT_NEAR(g->field(mesh::Field::kDensity)(g->sx(3), g->sy(3), g->sz(3)),
              2.5, 1e-12);
}

TEST(Deck, RenderRoundTrips) {
  const auto d = parse(R"(
ProblemType            = CollapseCloud
TopGridDimensions      = 16 16 16
MaximumRefinementLevel = 3
RefineByJeansLength    = 4
ChemistryEnabled       = 1
GravityEnabled         = 1
HydroMethod            = Zeus
Gamma                  = 1.4
StopSteps              = 5
)");
  const std::string text = core::render_deck(d);
  std::istringstream in(text);
  const auto d2 = core::parse_parameter_deck(in);
  EXPECT_EQ(d2.problem, d.problem);
  EXPECT_EQ(d2.config.hierarchy.max_level, d.config.hierarchy.max_level);
  EXPECT_EQ(d2.config.hydro.solver, d.config.hydro.solver);
  EXPECT_DOUBLE_EQ(d2.config.hydro.gamma, d.config.hydro.gamma);
  EXPECT_EQ(d2.stop_steps, d.stop_steps);
}

TEST(Deck, ThreadsSelectsTheBackend) {
  // One lane runs serially; any other count, 0 (all cores) included, runs
  // on the thread pool.  Each case renders back to the same settings.
  struct Case {
    int threads;
    exec::Backend backend;
  };
  for (const Case c : {Case{1, exec::Backend::kSerial},
                       Case{4, exec::Backend::kThreadPool},
                       Case{0, exec::Backend::kThreadPool}}) {
    const auto d = parse("Threads = " + std::to_string(c.threads) + "\n");
    EXPECT_EQ(d.config.exec.threads, c.threads);
    EXPECT_EQ(d.config.exec.backend, c.backend) << c.threads;
    std::istringstream in(core::render_deck(d));
    const auto d2 = core::parse_parameter_deck(in);
    EXPECT_EQ(d2.config.exec.threads, c.threads);
    EXPECT_EQ(d2.config.exec.backend, c.backend) << c.threads;
  }
}

TEST(Deck, RetiredKeysAreUnknown) {
  // Switches for paths that no longer exist are unknown parameters: the
  // overlap-topology cache is the only neighbour path, grid storage has one
  // policy (a pooled arena per hierarchy that keeps unchanged grids), and
  // the lane count alone picks the executor backend.
  for (const char* key :
       {"UseOverlapTopology", "ArenaMode", "BlockGranularity", "Executor"}) {
    EXPECT_THROW(parse(std::string(key) + " = 1\n"), enzo::Error) << key;
  }
}

TEST(Deck, UnknownProblemTypeListsRegisteredNames) {
  // The error text is derived from the problem registry, so it names the
  // problems that actually exist (satellite of ISSUE 10).
  try {
    parse("ProblemType = FirstStar\n");
    FAIL() << "should have thrown";
  } catch (const enzo::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("FirstStar"), std::string::npos);
    for (const char* name : {"SodTube", "SedovBlast", "ZeldovichPancake",
                             "CollapseCloud", "Cosmology", "Uniform"})
      EXPECT_NE(msg.find(name), std::string::npos) << name;
  }
}

TEST(Deck, ShippedDecksRenderRoundTrip) {
  // parse → render → parse → render must be a fixed point for every shipped
  // deck: the renderer emits every live key with round-trip float precision.
  for (const auto& path : shipped_decks()) {
    const auto d1 = core::parse_parameter_file(path.string());
    const std::string r1 = core::render_deck(d1);
    const auto d2 = parse(r1);
    EXPECT_EQ(core::render_deck(d2), r1) << path;
    EXPECT_EQ(d2.problem, d1.problem) << path;
  }
}

TEST(Deck, EveryShippedKeyIsLive) {
  // Removing any key line from a shipped deck must change the rendered
  // config — otherwise the key is either silently dropped by the renderer
  // (a lossy parse/render pair) or redundantly restates a default.
  // Intentional restatements are allowlisted and verified to actually BE
  // redundant, so the allowlist cannot rot either.
  const std::map<std::string, std::set<std::string>> redundant = {
      {"sod.enzo", {"HydroMethod"}},
      {"first_star.enzo", {"HydroMethod"}},
      {"sedov.enzo", {"TopGridDimensions"}},  // 32^3 is also the default
      {"cosmology_box.enzo",
       {"HubbleConstantNow", "OmegaMatterNow", "OmegaBaryonNow",
        "OmegaLambdaNow", "Sigma8", "RandomSeed", "StopSteps"}},
  };
  for (const auto& path : shipped_decks()) {
    const std::string text = slurp(path);
    const std::string base = core::render_deck(parse(text));
    const auto allow_it = redundant.find(path.filename().string());
    const std::set<std::string> allow = allow_it == redundant.end()
                                            ? std::set<std::string>{}
                                            : allow_it->second;
    std::istringstream lines(text);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(lines, line)) {
      ++line_no;
      const auto hash = line.find('#');
      const std::string body =
          hash == std::string::npos ? line : line.substr(0, hash);
      const auto eq = body.find('=');
      if (eq == std::string::npos) continue;
      std::string key = body.substr(0, eq);
      key.erase(0, key.find_first_not_of(" \t"));
      key.erase(key.find_last_not_of(" \t") + 1);
      // Re-parse the deck with this one line removed.
      std::istringstream all(text);
      std::ostringstream rest;
      std::string l2;
      std::size_t n2 = 0;
      while (std::getline(all, l2))
        if (++n2 != line_no) rest << l2 << "\n";
      const std::string without = core::render_deck(parse(rest.str()));
      if (allow.count(key)) {
        EXPECT_EQ(without, base)
            << path << ": '" << key << "' is allowlisted as redundant but "
            << "actually changes the config — drop it from the allowlist";
      } else {
        EXPECT_NE(without, base)
            << path << ": key '" << key << "' has no effect on the rendered "
            << "config — it is silently ignored or restates a default";
      }
    }
  }
}
