#include "core/parameter_file.hpp"

#include <charconv>
#include <concepts>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <type_traits>
#include <variant>
#include <vector>

#include "exec/exec_config.hpp"
#include "problems/registry.hpp"
#include "util/constants.hpp"
#include "util/error.hpp"

namespace enzo::core {

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

struct Parser {
  ParameterDeck deck;
  int line_no = 0;

  [[noreturn]] void fail(const std::string& msg) const {
    throw enzo::Error("parameter deck line " + std::to_string(line_no) + ": " +
                      msg);
  }

  // One value of each kind a key can hold.
  void read(const std::string& v, std::string& out) const { out = v; }
  void read(const std::string& v, double& out) const {
    try {
      std::size_t pos = 0;
      out = std::stod(v, &pos);
      if (trim(v.substr(pos)).empty()) return;
    } catch (...) {
    }
    fail("expected a number, got '" + v + "'");
  }
  void read(const std::string& v, int& out) const {
    double x = 0.0;
    read(v, x);
    out = static_cast<int>(x);
    if (static_cast<double>(out) != x)
      fail("expected an integer, got '" + v + "'");
  }
  void read(const std::string& v, std::uint64_t& out) const {
    double x = 0.0;
    read(v, x);
    out = static_cast<std::uint64_t>(x);
  }
  void read(const std::string& v, bool& out) const {
    if (v == "1" || v == "true" || v == "yes") out = true;
    else if (v == "0" || v == "false" || v == "no") out = false;
    else fail("expected a boolean (0/1/true/false), got '" + v + "'");
  }
  void read(const std::string& v, mesh::Index3& out) const {
    std::istringstream ss(v);
    out = {1, 1, 1};
    if (!(ss >> out[0])) fail("expected up to three integers, got '" + v + "'");
    ss >> out[1] >> out[2];
    std::string rest;
    if (ss.clear(), std::getline(ss, rest); !trim(rest).empty())
      fail("trailing text after dimensions: '" + rest + "'");
  }
  void read(const std::string& v, hydro::Solver& out) const {
    if (v == "PPM") out = hydro::Solver::kPpm;
    else if (v == "Zeus") out = hydro::Solver::kZeus;
    else fail("unknown HydroMethod '" + v + "' (PPM or Zeus)");
  }
};

/// Shortest round-trip rendering of a double (std::to_chars): re-parsing
/// the text recovers the bit-identical value, so render/parse cycles are
/// lossless — the old 6-significant-digit rendering turned 5/3 into
/// "1.66667" and silently perturbed every re-parsed config.
std::string text(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}
std::string text(const std::string& v) { return v; }
std::string text(const mesh::Index3& v) {
  return std::to_string(v[0]) + " " + std::to_string(v[1]) + " " +
         std::to_string(v[2]);
}
std::string text(std::integral auto v) { return std::to_string(v); }
std::string text(hydro::Solver v) {
  return v == hydro::Solver::kPpm ? "PPM" : "Zeus";
}

// ---- the key table ---------------------------------------------------------

/// Where a key's value lives in a deck.
template <class T>
using Field = T& (*)(ParameterDeck&);

/// The field a key sets and, for a key two problems read, a second field
/// that gets the same value.  Implicit, so a table row names one field bare.
template <class T>
struct Fields {
  constexpr Fields(Field<T> first, Field<T> second = nullptr)
      : first(first), second(second) {}
  Field<T> first;
  Field<T> second;
};

#define FIELD(path) +[](ParameterDeck& d) -> auto& { return d.path; }

enum class Show { kIfChanged, kAlways };

/// One deck key: its name, the field(s) it sets, whether render_deck shows
/// it at its default value, the stored value of one deck unit (lengths),
/// and what else setting it does.
struct Key {
  const char* name;
  std::variant<Fields<std::string>, Fields<mesh::Index3>, Fields<int>,
               Fields<bool>, Fields<double>, Fields<std::uint64_t>,
               Fields<hydro::Solver>>
      target;
  Show show = Show::kIfChanged;
  double unit = 1.0;
  void (*then)(Parser&) = nullptr;
};

// ProblemType is checked against the problem registry, so the accepted names
// and this error's listing can never drift from the actual generators.
void check_problem(Parser& p) {
  const auto& reg = problems::Registry::global();
  if (reg.find(p.deck.problem) == nullptr)
    p.fail("unknown ProblemType '" + p.deck.problem +
           "' (registered: " + reg.names_joined() + ")");
}

void chemistry_fields(Parser& p) {
  auto& cfg = p.deck.config;
  if (cfg.enable_chemistry) cfg.hierarchy.fields = mesh::chemistry_field_list();
}

void lanes(Parser& p) {
  const int threads = p.deck.config.exec.threads;
  if (threads < 0) p.fail("Threads must be >= 0 (0 = all cores)");
  p.deck.config.exec = exec::ExecConfig::for_lanes(threads);
}

constexpr auto kAlways = Show::kAlways;
constexpr auto kIfChanged = Show::kIfChanged;

/// Every deck key, in the order render_deck writes them.
constexpr Key kKeys[] = {
    {"ProblemType", FIELD(problem), kAlways, 1.0, check_problem},
    // --- hierarchy ---
    {"TopGridDimensions", FIELD(config.hierarchy.root_dims), kAlways},
    {"RefineBy", FIELD(config.hierarchy.refine_factor), kAlways},
    {"MaximumRefinementLevel", FIELD(config.hierarchy.max_level), kAlways},
    {"PeriodicBoundary", FIELD(config.hierarchy.periodic), kAlways},
    {"GhostZones", FIELD(config.hierarchy.nghost)},
    {"FlagBufferCells", FIELD(config.hierarchy.flag_buffer)},
    {"ClusterEfficiency", FIELD(config.hierarchy.cluster.min_efficiency)},
    // --- physics toggles ---
    {"HydroEnabled", FIELD(config.enable_hydro), kAlways},
    {"GravityEnabled", FIELD(config.enable_gravity), kAlways},
    {"ChemistryEnabled", FIELD(config.enable_chemistry), kAlways, 1.0,
     chemistry_fields},
    {"ParticlesEnabled", FIELD(config.enable_particles), kAlways},
    // --- hydro ---
    {"Gamma", FIELD(config.hydro.gamma), kAlways},
    {"CourantSafetyNumber", FIELD(config.hydro.cfl), kAlways},
    {"HydroMethod", FIELD(config.hydro.solver), kAlways},
    {"PPMFlattening", FIELD(config.hydro.flattening)},
    {"DualEnergyEta", FIELD(config.hydro.dual_energy_eta1)},
    // --- refinement criteria ---
    {"RefineByBaryonMass", FIELD(config.refinement.baryon_mass_threshold)},
    {"RefineByDarkMatterMass", FIELD(config.refinement.dm_mass_threshold)},
    {"RefineByJeansLength", FIELD(config.refinement.jeans_number)},
    {"RefineByOverdensity", FIELD(config.refinement.overdensity_threshold)},
    // --- cosmology ---
    {"ComovingCoordinates", FIELD(config.comoving)},
    {"HubbleConstantNow", FIELD(config.frw.hubble)},
    {"OmegaMatterNow", FIELD(config.frw.omega_matter)},
    {"OmegaBaryonNow", FIELD(config.frw.omega_baryon)},
    {"OmegaLambdaNow", FIELD(config.frw.omega_lambda)},
    {"Sigma8", FIELD(config.frw.sigma8)},
    {"InitialRedshift", FIELD(config.initial_redshift)},
    {"ComovingBoxSizeMpc",
     Fields(FIELD(cosmology.box_comoving_cm), FIELD(pancake.box_comoving_cm)),
     kIfChanged, constants::kMpc},
    {"RandomSeed", FIELD(cosmology.seed)},
    {"NestedStaticLevels", FIELD(cosmology.nested_static_levels)},
    {"ParticlesPerAxis", FIELD(cosmology.particles_per_axis)},
    // --- collapse problem ---
    {"BoxSizeParsec", FIELD(collapse.box_proper_cm), kIfChanged,
     constants::kParsec},
    {"CloudRadius", FIELD(collapse.cloud_radius)},
    {"CloudOverdensity", FIELD(collapse.overdensity)},
    {"BackgroundDensityCGS", FIELD(collapse.mean_density_cgs)},
    {"InitialTemperature",
     Fields(FIELD(collapse.temperature), FIELD(pancake.initial_temperature))},
    {"InitialIonizationFraction",
     Fields(FIELD(collapse.ionization), FIELD(cosmology.initial_ionization))},
    {"InitialH2Fraction",
     Fields(FIELD(collapse.h2_fraction), FIELD(cosmology.initial_h2_fraction))},
    // --- pancake / uniform / sedov ---
    {"PancakeCausticRedshift", FIELD(pancake.a_caustic_redshift)},
    {"UniformDensity", FIELD(uniform_density)},
    {"UniformInternalEnergy", FIELD(uniform_eint)},
    {"SedovEnergy", FIELD(sedov.energy)},
    {"SedovDepositRadius", FIELD(sedov.radius)},
    // --- execution and run control ---
    {"AuditInvariants", FIELD(config.audit_invariants)},
    {"AuditInterval", FIELD(config.audit_interval)},
    {"Threads", FIELD(config.exec.threads), kIfChanged, 1.0, lanes},
    {"RebuildInterval", FIELD(config.rebuild_interval)},
    {"StopSteps", FIELD(stop_steps), kAlways},
    {"StopTime", FIELD(stop_time)},
    {"CheckpointPath", FIELD(checkpoint_path)},
    {"CheckpointInterval", FIELD(checkpoint_interval)},
    {"CheckpointKeep", FIELD(checkpoint_keep)},
};

#undef FIELD

/// A value in deck units: a length key's unit scales a stored double.
template <class T>
T in_deck_units(T v, double unit) {
  if constexpr (std::is_same_v<T, double>) return v / unit;
  else return v;
}

}  // namespace

std::vector<std::string> deck_keys() {
  std::vector<std::string> names;
  for (const Key& k : kKeys) names.emplace_back(k.name);
  return names;
}

ParameterDeck parse_parameter_deck(std::istream& in) {
  Parser p;
  int set_on[std::size(kKeys)] = {};  // the line that set each key
  std::string line;
  while (std::getline(in, line)) {
    ++p.line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) p.fail("expected 'Key = value'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) p.fail("empty key");
    if (value.empty()) p.fail("empty value for '" + key + "'");
    std::size_t row = 0;
    while (row < std::size(kKeys) && key != kKeys[row].name) ++row;
    if (row == std::size(kKeys)) p.fail("unknown parameter '" + key + "'");
    if (set_on[row] != 0)
      p.fail("'" + key + "' is already set on line " +
             std::to_string(set_on[row]));
    set_on[row] = p.line_no;
    const Key& k = kKeys[row];
    std::visit(
        [&](const auto& f) {
          std::remove_reference_t<decltype(f.first(p.deck))> v{};
          p.read(value, v);
          if constexpr (std::is_same_v<decltype(v), double>) v *= k.unit;
          f.first(p.deck) = v;
          if (f.second != nullptr) f.second(p.deck) = v;
        },
        k.target);
    if (k.then != nullptr) k.then(p);
  }
  return std::move(p.deck);
}

ParameterDeck parse_parameter_file(const std::string& path) {
  std::ifstream in(path);
  ENZO_REQUIRE(in.good(), "cannot open parameter file: " + path);
  return parse_parameter_deck(in);
}

ProblemSetup deck_problem_setup(const ParameterDeck& deck) {
  // Registry dispatch: throws (listing the registered names) for a problem
  // name set programmatically without going through the parser.
  return problems::Registry::global().at(deck.problem).make(deck);
}

void setup_from_deck(Simulation& sim, const ParameterDeck& deck) {
  sim.initialize(deck_problem_setup(deck));
}

void configure_from_deck(Simulation& sim, const ParameterDeck& deck) {
  sim.configure_for_restart(deck_problem_setup(deck));
}

std::string render_deck(const ParameterDeck& deck) {
  // The field accessors take a mutable deck, so render reads a copy.  Each
  // key is compared against the parser's starting state, so render emits
  // exactly the keys a deck needs to reproduce this configuration.
  ParameterDeck d = deck, d0;
  std::string out;
  for (const Key& k : kKeys)
    std::visit(
        [&](const auto& f) {
          // A key two problems read shows the first of its fields that
          // differs from its default (the parser sets the two together).
          for (const auto field : {f.first, f.second}) {
            if (field == nullptr) return;
            const std::string v = text(in_deck_units(field(d), k.unit));
            if (k.show == kAlways ||
                v != text(in_deck_units(field(d0), k.unit))) {
              out += std::string(k.name) + " = " + v + "\n";
              return;
            }
          }
        },
        k.target);
  return out;
}

}  // namespace enzo::core
