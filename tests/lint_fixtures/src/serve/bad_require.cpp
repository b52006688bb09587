// Fixture: a request handler checking a param by precondition
// (require-in-frontend).
#include "voprof/util/assert.hpp"

namespace voprof::serve {

int vms_param(int vms) {
  VOPROF_REQUIRE(vms >= 1);
  return vms;
}

}  // namespace voprof::serve
