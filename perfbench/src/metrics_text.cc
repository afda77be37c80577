#include "metrics_text.h"

#include <cstdlib>
#include <sstream>

namespace perfbench {

double SumSamples(const std::string& exposition, const std::string& name) {
  double total = 0;
  std::istringstream in(exposition);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.compare(0, name.size(), name) != 0) continue;
    char next = line.size() > name.size() ? line[name.size()] : '\0';
    if (next != ' ' && next != '{') continue;
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    total += std::strtod(line.c_str() + space + 1, nullptr);
  }
  return total;
}

}  // namespace perfbench
