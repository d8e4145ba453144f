#include "bloom/summary.h"

#include <algorithm>

namespace flower {

namespace {

size_t SummaryBits(int capacity, int bits_per_object) {
  return static_cast<size_t>(std::max(capacity, 1)) *
         static_cast<size_t>(bits_per_object);
}

}  // namespace

ContentSummary::ContentSummary(int capacity, int bits_per_object,
                               int num_hashes)
    : filter_(SummaryBits(capacity, bits_per_object), num_hashes) {}

ContentSummary::ContentSummary(const SimConfig& config)
    : ContentSummary(config.num_objects_per_website,
                     config.summary_bits_per_object,
                     config.summary_num_hashes) {}

BloomProbe ContentSummary::Probe(ObjectId id, const SimConfig& config) {
  return BloomProbe(id,
                    SummaryBits(config.num_objects_per_website,
                                config.summary_bits_per_object),
                    config.summary_num_hashes);
}

void ContentSummary::Rebuild(const std::vector<ObjectId>& objects) {
  filter_.Clear();
  for (ObjectId id : objects) filter_.Add(id);
}

}  // namespace flower
