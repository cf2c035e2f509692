#ifndef PS2_CORE_OBJECT_H_
#define PS2_CORE_OBJECT_H_

#include <cstdint>
#include <vector>

#include "common/geo.h"
#include "text/vocabulary.h"

namespace ps2 {

using ObjectId = uint64_t;

// A spatio-textual object o = <text, loc> (Section III-A): one element of
// the published data stream, e.g. a geo-tagged tweet. Text is stored as a
// sorted, deduplicated vector of TermIds so that boolean matching and
// routing are binary searches.
struct SpatioTextualObject {
  ObjectId id = 0;
  Point loc;
  std::vector<TermId> terms;  // sorted ascending, unique

  // Event-time timestamp in microseconds (stream order / replay position).
  int64_t timestamp_us = 0;

  // Optional lifetime: the object stops being eligible for continuous
  // (top-k) result sets once the stream's event-time watermark passes
  // timestamp_us + ttl_us. 0 means the object never expires. Expiry is
  // event-time, not wall-clock, so replays behave identically.
  int64_t ttl_us = 0;

  // Builds from already-known term ids (normalizes ordering).
  static SpatioTextualObject FromTerms(ObjectId id, Point loc,
                                       std::vector<TermId> terms);

  bool ContainsTerm(TermId t) const;

  // Approximate in-memory footprint (for worker memory accounting).
  size_t MemoryBytes() const {
    return sizeof(SpatioTextualObject) + terms.capacity() * sizeof(TermId);
  }
};

}  // namespace ps2

#endif  // PS2_CORE_OBJECT_H_
