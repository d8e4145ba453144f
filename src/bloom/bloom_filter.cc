#include "bloom/bloom_filter.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/rng.h"

namespace flower {

namespace {

// SimConfig::Apply validates the summary geometry, but the fields can also
// be set directly; a zero-bit filter divides by zero and an oversized k
// overruns BloomProbe, so this stays fatal in Release builds too.
void CheckGeometry(size_t num_bits, int num_hashes) {
  if (num_bits == 0 || num_hashes < 1 ||
      num_hashes > BloomProbe::kMaxHashes) {
    std::fprintf(stderr,
                 "fatal: Bloom geometry %zu bits x %d hashes (want >= 1 bit "
                 "and 1..%d hashes)\n",
                 num_bits, num_hashes, BloomProbe::kMaxHashes);
    std::abort();
  }
}

// Double hashing (Kirsch & Mitzenmacher, "Less hashing, same performance"):
// position_i = h1 + i * h2 (mod m) with an odd step h2. Calls
// visit(word, mask) for each position until it returns false.
template <typename Visit>
bool ForEachPosition(uint64_t key, size_t num_bits, int num_hashes,
                     Visit visit) {
  uint64_t h = Mix64(key);
  const uint64_t step = Mix64(key ^ 0x5851f42d4c957f2dULL) | 1;
  for (int i = 0; i < num_hashes; ++i, h += step) {
    const size_t p = static_cast<size_t>(h % num_bits);
    if (!visit(p / 64, uint64_t{1} << (p % 64))) return false;
  }
  return true;
}

}  // namespace

BloomProbe::BloomProbe(uint64_t key, size_t num_bits, int num_hashes)
    : key_(key), num_bits_(num_bits), num_hashes_(num_hashes) {
  CheckGeometry(num_bits, num_hashes);
  int i = 0;
  ForEachPosition(key, num_bits, num_hashes, [&](size_t word, uint64_t mask) {
    words_[i] = word;
    masks_[i] = mask;
    ++i;
    return true;
  });
}

BloomFilter::BloomFilter(size_t num_bits, int num_hashes)
    : num_bits_(num_bits),
      num_hashes_(num_hashes),
      bits_((num_bits + 63) / 64, 0) {
  CheckGeometry(num_bits, num_hashes);
}

void BloomFilter::Add(uint64_t key) {
  ForEachPosition(key, num_bits_, num_hashes_,
                  [this](size_t word, uint64_t mask) {
                    bits_[word] |= mask;
                    return true;
                  });
  ++insertions_;
}

bool BloomFilter::MaybeContains(uint64_t key) const {
  return ForEachPosition(key, num_bits_, num_hashes_,
                         [this](size_t word, uint64_t mask) {
                           return (bits_[word] & mask) != 0;
                         });
}

void BloomFilter::Clear() {
  for (auto& w : bits_) w = 0;
  insertions_ = 0;
}

void BloomFilter::UnionWith(const BloomFilter& other) {
  assert(other.num_bits_ == num_bits_);
  assert(other.num_hashes_ == num_hashes_);
  for (size_t i = 0; i < bits_.size(); ++i) bits_[i] |= other.bits_[i];
  insertions_ += other.insertions_;
}

size_t BloomFilter::CountSetBits() const {
  size_t count = 0;
  for (uint64_t w : bits_) count += static_cast<size_t>(__builtin_popcountll(w));
  return count;
}

double BloomFilter::EstimatedFpRate() const {
  double k = static_cast<double>(num_hashes_);
  double n = static_cast<double>(insertions_);
  double m = static_cast<double>(num_bits_);
  return std::pow(1.0 - std::exp(-k * n / m), k);
}

}  // namespace flower
