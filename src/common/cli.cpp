#include "common/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace evmp::common {

CliArgs::CliArgs(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "";
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

long CliArgs::get_long(const std::string& name, long fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  const long v = std::strtol(it->second.c_str(), &end, 10);
  return (end != it->second.c_str() && *end == '\0') ? v : fallback;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  return (end != it->second.c_str() && *end == '\0') ? v : fallback;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  if (it->second.empty()) return true;  // bare --flag
  return it->second == "1" || it->second == "true" || it->second == "yes";
}

std::vector<long> CliArgs::get_long_list(const std::string& name,
                                         std::vector<long> fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  std::vector<long> out;
  std::stringstream ss(it->second);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) continue;
    out.push_back(std::strtol(tok.c_str(), nullptr, 10));
  }
  return out.empty() ? fallback : out;
}

double read_budget(const std::string& path, const char* key,
                   double fallback) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s; using budget %.3f\n", path.c_str(),
                 fallback);
    return fallback;
  }
  std::string text(1 << 16, '\0');
  const std::size_t got = std::fread(text.data(), 1, text.size(), f);
  std::fclose(f);
  text.resize(got);
  const std::string needle = std::string("\"") + key + "\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return fallback;
  const std::size_t colon = text.find(':', at);
  if (colon == std::string::npos) return fallback;
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

}  // namespace evmp::common
