// Fixture: a tool reporting an unwritable output file by precondition
// (require-in-frontend).
#include <fstream>
#include <string>

#include "voprof/util/assert.hpp"

namespace voprof::tools {

void write_report(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  VOPROF_REQUIRE_MSG(out.good(), "cannot write " + path);
  out << text;
}

}  // namespace voprof::tools
