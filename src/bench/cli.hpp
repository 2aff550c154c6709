// Tiny flag parser + shared setup for the figure-reproduction binaries.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/topo/hardware.hpp"

namespace adapt::bench {

/// Parses "--key value", "--key=value" and bare "--flag" arguments against
/// the flags a binary declares. `--help` prints the declared flags; an
/// undeclared, repeated or positional argument is an error that names it.
class Cli {
 public:
  struct Flag {
    std::string name;  ///< without the leading "--"
    std::string help;  ///< one line shown by --help
  };

  /// Parses argv. `--help` prints usage() to stdout and exits 0; a bad
  /// argument prints the error and usage() to stderr and exits 2.
  Cli(int argc, char** argv, std::vector<Flag> flags);

  /// Parses `args` (argv without the program name); throws adapt::Error
  /// naming the offending argument instead of exiting.
  Cli(const std::vector<std::string>& args, std::vector<Flag> flags);

  /// A bare "--flag" reads as "1"; get_int throws on a non-integer value.
  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  bool has(const std::string& key) const;

  bool help_requested() const { return help_; }
  /// "usage: PROGRAM [flags]" followed by one line per declared flag.
  std::string usage(const std::string& program) const;

 private:
  void parse(const std::vector<std::string>& args);

  std::vector<Flag> flags_;
  std::map<std::string, std::string> args_;
  bool help_ = false;
};

/// Builds the paper's machine for a cluster name at a node count, with the
/// rank count the paper used unless overridden.
struct ClusterSetup {
  topo::Machine machine;
  std::string cluster;
  int ranks;
};

ClusterSetup make_cluster(const std::string& cluster, int nodes, int ranks);

}  // namespace adapt::bench
