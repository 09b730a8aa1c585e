#include "core/parameter_file.hpp"

#include <charconv>
#include <fstream>
#include <functional>
#include <sstream>

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

  double num(const std::string& v) const {
    try {
      std::size_t pos = 0;
      const double x = std::stod(v, &pos);
      if (trim(v.substr(pos)).empty()) return x;
    } catch (...) {
    }
    fail("expected a number, got '" + v + "'");
  }
  int integer(const std::string& v) const {
    const double x = num(v);
    const int i = static_cast<int>(x);
    if (static_cast<double>(i) != x) fail("expected an integer, got '" + v + "'");
    return i;
  }
  bool boolean(const std::string& v) const {
    if (v == "1" || v == "true" || v == "yes") return true;
    if (v == "0" || v == "false" || v == "no") return false;
    fail("expected a boolean (0/1/true/false), got '" + v + "'");
  }
  mesh::Index3 dims(const std::string& v) const {
    std::istringstream ss(v);
    mesh::Index3 d{1, 1, 1};
    if (!(ss >> d[0])) fail("expected up to three integers, got '" + v + "'");
    ss >> d[1] >> d[2];
    std::string rest;
    if (ss.clear(), std::getline(ss, rest); !trim(rest).empty())
      fail("trailing text after dimensions: '" + rest + "'");
    return d;
  }

  void apply(const std::string& key, const std::string& value) {
    auto& cfg = deck.config;
    // --- problem selection -----------------------------------------------
    if (key == "ProblemType") {
      // Validated against the problem registry, so the accepted names and
      // this error's listing can never drift from the actual generators.
      const auto& reg = problems::Registry::global();
      if (reg.find(value) == nullptr)
        fail("unknown ProblemType '" + value +
             "' (registered: " + reg.names_joined() + ")");
      deck.problem = value;
      return;
    }
    // --- hierarchy ----------------------------------------------------------
    if (key == "TopGridDimensions") { cfg.hierarchy.root_dims = dims(value); return; }
    if (key == "RefineBy") { cfg.hierarchy.refine_factor = integer(value); return; }
    if (key == "MaximumRefinementLevel") { cfg.hierarchy.max_level = integer(value); return; }
    if (key == "PeriodicBoundary") { cfg.hierarchy.periodic = boolean(value); return; }
    if (key == "GhostZones") { cfg.hierarchy.nghost = integer(value); return; }
    if (key == "FlagBufferCells") { cfg.hierarchy.flag_buffer = integer(value); return; }
    if (key == "ClusterEfficiency") { cfg.hierarchy.cluster.min_efficiency = num(value); return; }
    // --- refinement criteria -----------------------------------------------
    if (key == "RefineByBaryonMass") { cfg.refinement.baryon_mass_threshold = num(value); return; }
    if (key == "RefineByDarkMatterMass") { cfg.refinement.dm_mass_threshold = num(value); return; }
    if (key == "RefineByJeansLength") { cfg.refinement.jeans_number = num(value); return; }
    if (key == "RefineByOverdensity") { cfg.refinement.overdensity_threshold = num(value); return; }
    // --- physics toggles -----------------------------------------------------
    if (key == "HydroEnabled") { cfg.enable_hydro = boolean(value); return; }
    if (key == "GravityEnabled") { cfg.enable_gravity = boolean(value); return; }
    if (key == "ChemistryEnabled") {
      cfg.enable_chemistry = boolean(value);
      if (cfg.enable_chemistry) cfg.hierarchy.fields = mesh::chemistry_field_list();
      return;
    }
    if (key == "ParticlesEnabled") { cfg.enable_particles = boolean(value); return; }
    // --- hydro ---------------------------------------------------------------
    if (key == "Gamma") { cfg.hydro.gamma = num(value); return; }
    if (key == "CourantSafetyNumber") { cfg.hydro.cfl = num(value); return; }
    if (key == "HydroMethod") {
      if (value == "PPM") cfg.hydro.solver = hydro::Solver::kPpm;
      else if (value == "Zeus") cfg.hydro.solver = hydro::Solver::kZeus;
      else fail("unknown HydroMethod '" + value + "' (PPM or Zeus)");
      return;
    }
    if (key == "PPMFlattening") { cfg.hydro.flattening = boolean(value); return; }
    if (key == "DualEnergyEta") { cfg.hydro.dual_energy_eta1 = num(value); return; }
    // --- cosmology -------------------------------------------------------------
    if (key == "ComovingCoordinates") { cfg.comoving = boolean(value); return; }
    if (key == "HubbleConstantNow") { cfg.frw.hubble = num(value); return; }
    if (key == "OmegaMatterNow") { cfg.frw.omega_matter = num(value); return; }
    if (key == "OmegaBaryonNow") { cfg.frw.omega_baryon = num(value); return; }
    if (key == "OmegaLambdaNow") { cfg.frw.omega_lambda = num(value); return; }
    if (key == "Sigma8") { cfg.frw.sigma8 = num(value); return; }
    if (key == "InitialRedshift") { cfg.initial_redshift = num(value); return; }
    if (key == "ComovingBoxSizeMpc") {
      // Shared by the two comoving problems (cosmology box and pancake).
      deck.cosmology.box_comoving_cm = num(value) * constants::kMpc;
      deck.pancake.box_comoving_cm = deck.cosmology.box_comoving_cm;
      return;
    }
    if (key == "RandomSeed") { deck.cosmology.seed = static_cast<std::uint64_t>(num(value)); return; }
    if (key == "NestedStaticLevels") { deck.cosmology.nested_static_levels = integer(value); return; }
    if (key == "ParticlesPerAxis") { deck.cosmology.particles_per_axis = integer(value); return; }
    // --- collapse problem --------------------------------------------------------
    if (key == "BoxSizeParsec") {
      deck.collapse.box_proper_cm = num(value) * constants::kParsec;
      return;
    }
    if (key == "CloudRadius") { deck.collapse.cloud_radius = num(value); return; }
    if (key == "CloudOverdensity") { deck.collapse.overdensity = num(value); return; }
    if (key == "BackgroundDensityCGS") { deck.collapse.mean_density_cgs = num(value); return; }
    if (key == "InitialTemperature") {
      deck.collapse.temperature = num(value);
      deck.pancake.initial_temperature = num(value);
      return;
    }
    if (key == "InitialIonizationFraction") {
      deck.collapse.ionization = num(value);
      deck.cosmology.initial_ionization = num(value);
      return;
    }
    if (key == "InitialH2Fraction") {
      deck.collapse.h2_fraction = num(value);
      deck.cosmology.initial_h2_fraction = num(value);
      return;
    }
    // --- pancake -------------------------------------------------------------------
    if (key == "PancakeCausticRedshift") { deck.pancake.a_caustic_redshift = num(value); return; }
    // --- uniform -------------------------------------------------------------------
    if (key == "UniformDensity") { deck.uniform_density = num(value); return; }
    if (key == "UniformInternalEnergy") { deck.uniform_eint = num(value); return; }
    // --- sedov blast ---------------------------------------------------------------
    if (key == "SedovEnergy") { deck.sedov.energy = num(value); return; }
    if (key == "SedovDepositRadius") { deck.sedov.radius = num(value); return; }
    // --- execution ------------------------------------------------------------------
    if (key == "Threads") {
      cfg.exec.threads = integer(value);
      if (cfg.exec.threads < 0) fail("Threads must be >= 0 (0 = all cores)");
      // One lane runs serially; any other count runs on the pool.
      cfg.exec.backend = cfg.exec.threads == 1 ? exec::Backend::kSerial
                                               : exec::Backend::kThreadPool;
      return;
    }
    // --- run control ----------------------------------------------------------------
    if (key == "StopTime") { deck.stop_time = num(value); return; }
    if (key == "StopSteps") { deck.stop_steps = integer(value); return; }
    if (key == "RebuildInterval") { cfg.rebuild_interval = integer(value); return; }
    if (key == "AuditInvariants") { cfg.audit_invariants = boolean(value); return; }
    if (key == "AuditInterval") { cfg.audit_interval = integer(value); return; }
    if (key == "CheckpointPath") { deck.checkpoint_path = value; return; }
    if (key == "CheckpointInterval") {
      deck.checkpoint_interval = integer(value);
      return;
    }
    if (key == "CheckpointKeep") { deck.checkpoint_keep = integer(value); return; }
    fail("unknown parameter '" + key + "'");
  }
};

}  // namespace

ParameterDeck parse_parameter_deck(std::istream& in) {
  Parser p;
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
    p.apply(key, value);
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

namespace {

/// Shortest round-trip rendering of a double (std::to_chars): re-parsing
/// the text recovers the bit-identical value, so render/parse cycles are
/// lossless — the old 6-significant-digit rendering turned 5/3 into
/// "1.66667" and silently perturbed every re-parsed config.
std::string fmt(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string render_deck(const ParameterDeck& deck) {
  std::ostringstream os;
  const auto& cfg = deck.config;
  // Compare against the parser's starting state, so render emits exactly
  // the keys a deck would need to reproduce this configuration.
  const ParameterDeck d0;
  const auto& c0 = d0.config;

  os << "ProblemType = " << deck.problem << "\n";
  os << "TopGridDimensions = " << cfg.hierarchy.root_dims[0] << " "
     << cfg.hierarchy.root_dims[1] << " " << cfg.hierarchy.root_dims[2]
     << "\n";
  os << "RefineBy = " << cfg.hierarchy.refine_factor << "\n";
  os << "MaximumRefinementLevel = " << cfg.hierarchy.max_level << "\n";
  os << "PeriodicBoundary = " << (cfg.hierarchy.periodic ? 1 : 0) << "\n";
  if (cfg.hierarchy.nghost != c0.hierarchy.nghost)
    os << "GhostZones = " << cfg.hierarchy.nghost << "\n";
  if (cfg.hierarchy.flag_buffer != c0.hierarchy.flag_buffer)
    os << "FlagBufferCells = " << cfg.hierarchy.flag_buffer << "\n";
  if (cfg.hierarchy.cluster.min_efficiency !=
      c0.hierarchy.cluster.min_efficiency)
    os << "ClusterEfficiency = " << fmt(cfg.hierarchy.cluster.min_efficiency)
       << "\n";
  os << "HydroEnabled = " << (cfg.enable_hydro ? 1 : 0) << "\n";
  os << "GravityEnabled = " << (cfg.enable_gravity ? 1 : 0) << "\n";
  os << "ChemistryEnabled = " << (cfg.enable_chemistry ? 1 : 0) << "\n";
  os << "ParticlesEnabled = " << (cfg.enable_particles ? 1 : 0) << "\n";
  os << "Gamma = " << fmt(cfg.hydro.gamma) << "\n";
  os << "CourantSafetyNumber = " << fmt(cfg.hydro.cfl) << "\n";
  os << "HydroMethod = "
     << (cfg.hydro.solver == hydro::Solver::kPpm ? "PPM" : "Zeus") << "\n";
  if (cfg.hydro.flattening != c0.hydro.flattening)
    os << "PPMFlattening = " << (cfg.hydro.flattening ? 1 : 0) << "\n";
  if (cfg.hydro.dual_energy_eta1 != c0.hydro.dual_energy_eta1)
    os << "DualEnergyEta = " << fmt(cfg.hydro.dual_energy_eta1) << "\n";
  if (cfg.refinement.baryon_mass_threshold > 0)
    os << "RefineByBaryonMass = " << fmt(cfg.refinement.baryon_mass_threshold)
       << "\n";
  if (cfg.refinement.dm_mass_threshold > 0)
    os << "RefineByDarkMatterMass = " << fmt(cfg.refinement.dm_mass_threshold)
       << "\n";
  if (cfg.refinement.jeans_number > 0)
    os << "RefineByJeansLength = " << fmt(cfg.refinement.jeans_number) << "\n";
  if (cfg.refinement.overdensity_threshold > 0)
    os << "RefineByOverdensity = " << fmt(cfg.refinement.overdensity_threshold)
       << "\n";
  if (cfg.comoving) os << "ComovingCoordinates = 1\n";
  if (cfg.frw.hubble != c0.frw.hubble)
    os << "HubbleConstantNow = " << fmt(cfg.frw.hubble) << "\n";
  if (cfg.frw.omega_matter != c0.frw.omega_matter)
    os << "OmegaMatterNow = " << fmt(cfg.frw.omega_matter) << "\n";
  if (cfg.frw.omega_baryon != c0.frw.omega_baryon)
    os << "OmegaBaryonNow = " << fmt(cfg.frw.omega_baryon) << "\n";
  if (cfg.frw.omega_lambda != c0.frw.omega_lambda)
    os << "OmegaLambdaNow = " << fmt(cfg.frw.omega_lambda) << "\n";
  if (cfg.frw.sigma8 != c0.frw.sigma8)
    os << "Sigma8 = " << fmt(cfg.frw.sigma8) << "\n";
  if (cfg.initial_redshift != c0.initial_redshift)
    os << "InitialRedshift = " << fmt(cfg.initial_redshift) << "\n";
  // ComovingBoxSizeMpc feeds both comoving problems; emit whichever differs
  // from its default (a deck key always sets the two together).
  if (deck.cosmology.box_comoving_cm != d0.cosmology.box_comoving_cm)
    os << "ComovingBoxSizeMpc = "
       << fmt(deck.cosmology.box_comoving_cm / constants::kMpc) << "\n";
  else if (deck.pancake.box_comoving_cm != d0.pancake.box_comoving_cm)
    os << "ComovingBoxSizeMpc = "
       << fmt(deck.pancake.box_comoving_cm / constants::kMpc) << "\n";
  if (deck.cosmology.seed != d0.cosmology.seed)
    os << "RandomSeed = " << deck.cosmology.seed << "\n";
  if (deck.cosmology.nested_static_levels != d0.cosmology.nested_static_levels)
    os << "NestedStaticLevels = " << deck.cosmology.nested_static_levels
       << "\n";
  if (deck.cosmology.particles_per_axis != d0.cosmology.particles_per_axis)
    os << "ParticlesPerAxis = " << deck.cosmology.particles_per_axis << "\n";
  // --- collapse problem ---
  if (deck.collapse.box_proper_cm != d0.collapse.box_proper_cm)
    os << "BoxSizeParsec = "
       << fmt(deck.collapse.box_proper_cm / constants::kParsec) << "\n";
  if (deck.collapse.cloud_radius != d0.collapse.cloud_radius)
    os << "CloudRadius = " << fmt(deck.collapse.cloud_radius) << "\n";
  if (deck.collapse.overdensity != d0.collapse.overdensity)
    os << "CloudOverdensity = " << fmt(deck.collapse.overdensity) << "\n";
  if (deck.collapse.mean_density_cgs != d0.collapse.mean_density_cgs)
    os << "BackgroundDensityCGS = " << fmt(deck.collapse.mean_density_cgs)
       << "\n";
  // The Initial* keys each feed two problems' options; emit whichever copy
  // differs from its own default (a deck key always sets both together).
  if (deck.collapse.temperature != d0.collapse.temperature)
    os << "InitialTemperature = " << fmt(deck.collapse.temperature) << "\n";
  else if (deck.pancake.initial_temperature != d0.pancake.initial_temperature)
    os << "InitialTemperature = " << fmt(deck.pancake.initial_temperature)
       << "\n";
  if (deck.collapse.ionization != d0.collapse.ionization)
    os << "InitialIonizationFraction = " << fmt(deck.collapse.ionization)
       << "\n";
  else if (deck.cosmology.initial_ionization !=
           d0.cosmology.initial_ionization)
    os << "InitialIonizationFraction = "
       << fmt(deck.cosmology.initial_ionization) << "\n";
  if (deck.collapse.h2_fraction != d0.collapse.h2_fraction)
    os << "InitialH2Fraction = " << fmt(deck.collapse.h2_fraction) << "\n";
  else if (deck.cosmology.initial_h2_fraction !=
           d0.cosmology.initial_h2_fraction)
    os << "InitialH2Fraction = " << fmt(deck.cosmology.initial_h2_fraction)
       << "\n";
  // --- pancake / uniform / sedov ---
  if (deck.pancake.a_caustic_redshift != d0.pancake.a_caustic_redshift)
    os << "PancakeCausticRedshift = " << fmt(deck.pancake.a_caustic_redshift)
       << "\n";
  if (deck.uniform_density != d0.uniform_density)
    os << "UniformDensity = " << fmt(deck.uniform_density) << "\n";
  if (deck.uniform_eint != d0.uniform_eint)
    os << "UniformInternalEnergy = " << fmt(deck.uniform_eint) << "\n";
  if (deck.sedov.energy != d0.sedov.energy)
    os << "SedovEnergy = " << fmt(deck.sedov.energy) << "\n";
  if (deck.sedov.radius != d0.sedov.radius)
    os << "SedovDepositRadius = " << fmt(deck.sedov.radius) << "\n";
  if (cfg.audit_invariants) {
    os << "AuditInvariants = 1\n";
    if (cfg.audit_interval != 1)
      os << "AuditInterval = " << cfg.audit_interval << "\n";
  }
  if (cfg.exec.backend != exec::Backend::kSerial || cfg.exec.threads != 0)
    os << "Threads = " << cfg.exec.threads << "\n";
  if (cfg.rebuild_interval != c0.rebuild_interval)
    os << "RebuildInterval = " << cfg.rebuild_interval << "\n";
  os << "StopSteps = " << deck.stop_steps << "\n";
  if (deck.stop_time != d0.stop_time)
    os << "StopTime = " << fmt(deck.stop_time) << "\n";
  if (!deck.checkpoint_path.empty())
    os << "CheckpointPath = " << deck.checkpoint_path << "\n";
  if (deck.checkpoint_interval != d0.checkpoint_interval)
    os << "CheckpointInterval = " << deck.checkpoint_interval << "\n";
  if (deck.checkpoint_keep != d0.checkpoint_keep)
    os << "CheckpointKeep = " << deck.checkpoint_keep << "\n";
  return os.str();
}

}  // namespace enzo::core
