#include "src/bench/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "src/support/error.hpp"
#include "src/topo/presets.hpp"

namespace adapt::bench {

Cli::Cli(const std::vector<std::string>& args, std::vector<Flag> flags)
    : flags_(std::move(flags)) {
  parse(args);
}

void Cli::parse(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0 || arg.size() == 2) {
      throw Error(std::string("not a --flag: ") + arg);
    }
    std::string key = arg.substr(2);
    std::string value = "1";
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
      value = args[++i];
    }
    if (key == "help") {
      help_ = true;
      continue;
    }
    if (std::none_of(flags_.begin(), flags_.end(),
                     [&](const Flag& f) { return f.name == key; })) {
      throw Error(std::string("unknown flag --") + key);
    }
    if (!args_.emplace(key, value).second) {
      throw Error(std::string("duplicate flag --") + key);
    }
  }
}

Cli::Cli(int argc, char** argv, std::vector<Flag> flags)
    : flags_(std::move(flags)) {
  const std::string program = argc > 0 ? argv[0] : "bench";
  try {
    parse(std::vector<std::string>(argv + std::min(argc, 1), argv + argc));
  } catch (const Error& e) {
    std::cerr << program << ": " << e.what() << "\n" << usage(program);
    std::exit(2);
  }
  if (help_) {
    std::cout << usage(program);
    std::exit(0);
  }
}

std::string Cli::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const Flag& f : flags_) {
    os << "  --" << std::left << std::setw(14) << f.name << " " << f.help
       << "\n";
  }
  return os.str() + "  --help           print these flags and exit\n";
}

std::string Cli::get(const std::string& key, const std::string& fallback)
    const {
  const auto it = args_.find(key);
  return it == args_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback)
    const {
  const auto it = args_.find(key);
  if (it == args_.end()) return fallback;
  char* end = nullptr;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  if (it->second.empty() || *end != '\0') {
    throw Error(std::string("non-integer value for flag --") + key);
  }
  return value;
}

bool Cli::has(const std::string& key) const {
  return args_.count(key) > 0;
}

ClusterSetup make_cluster(const std::string& cluster, int nodes, int ranks) {
  topo::MachineSpec spec = topo::preset(cluster, nodes);
  const auto policy = spec.gpus_per_socket > 0
                          ? topo::PlacementPolicy::kByGpu
                          : topo::PlacementPolicy::kByCore;
  return ClusterSetup{topo::Machine(spec, ranks, policy), cluster, ranks};
}

}  // namespace adapt::bench
