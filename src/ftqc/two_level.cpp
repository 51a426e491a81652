#include "ftqc/two_level.h"

#include <algorithm>

namespace ebmf::ftqc {

std::size_t watson_lower_bound(std::size_t rb_logical, std::size_t phi_logical,
                               std::size_t rb_physical,
                               std::size_t phi_physical) {
  return std::max(rb_logical * phi_physical, rb_physical * phi_logical);
}

TwoLevelResult solve_two_level(const BinaryMatrix& logical,
                               const BinaryMatrix& physical,
                               const engine::SolveRequest& base) {
  const engine::Engine facade;
  TwoLevelResult out;
  engine::SolveRequest request = base;
  request.masked.reset();
  request.matrix = logical;
  out.logical = facade.solve(request);
  request.matrix = physical;
  out.physical = facade.solve(request);
  out.product_partition =
      tensor_partition(out.logical.partition, out.physical.partition);
  out.upper_bound = out.product_partition.size();
  // A budget-cut φ only lowers Eq. 5's product bound, which stays sound.
  out.phi_logical = max_fooling_set(logical, base.budget).size();
  out.phi_physical = max_fooling_set(physical, base.budget).size();
  // Eq. 5 needs the true r_B of each factor. When the solve proved
  // optimality the partition size is exact; otherwise substitute the lower
  // bound so the product bound stays sound (r_B appears positively).
  const std::size_t rb_logical = out.logical.proven_optimal()
                                     ? out.logical.depth()
                                     : out.logical.lower_bound;
  const std::size_t rb_physical = out.physical.proven_optimal()
                                      ? out.physical.depth()
                                      : out.physical.lower_bound;
  out.lower_bound = watson_lower_bound(rb_logical, out.phi_logical,
                                       rb_physical, out.phi_physical);
  return out;
}

}  // namespace ebmf::ftqc
