#include "core/object.h"

#include <algorithm>

namespace ps2 {

SpatioTextualObject SpatioTextualObject::FromTerms(ObjectId id, Point loc,
                                                   std::vector<TermId> terms) {
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  SpatioTextualObject o;
  o.id = id;
  o.loc = loc;
  o.terms = std::move(terms);
  return o;
}

bool SpatioTextualObject::ContainsTerm(TermId t) const {
  return std::binary_search(terms.begin(), terms.end(), t);
}

}  // namespace ps2
