// Bloom filter used for content and directory summaries (Fan et al.,
// "Summary Cache", SIGCOMM 1998 — the paper's citation [9]).
#ifndef FLOWERCDN_BLOOM_BLOOM_FILTER_H_
#define FLOWERCDN_BLOOM_BLOOM_FILTER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace flower {

/// One key's k bit positions in filters of one geometry (num_bits,
/// num_hashes), as (word, mask) pairs. A scan that asks many filters of
/// the same geometry about one key builds the probe once; each filter
/// test is then k AND-tests with no hashing or division.
class BloomProbe {
 public:
  /// The largest num_hashes a filter may have (SimConfig::Apply rejects
  /// larger summary_num_hashes).
  static constexpr int kMaxHashes = 16;

  BloomProbe(uint64_t key, size_t num_bits, int num_hashes);

  size_t num_bits() const { return num_bits_; }
  int num_hashes() const { return num_hashes_; }

 private:
  friend class BloomFilter;

  uint64_t key_;
  size_t num_bits_;
  int num_hashes_;
  std::array<size_t, kMaxHashes> words_{};
  std::array<uint64_t, kMaxHashes> masks_{};
};

class BloomFilter {
 public:
  /// Creates a filter with `num_bits` bits and `num_hashes` hash functions
  /// (1 <= num_hashes <= BloomProbe::kMaxHashes).
  BloomFilter(size_t num_bits, int num_hashes);

  void Add(uint64_t key);

  /// True if the key *may* be present; false means definitely absent.
  bool MaybeContains(uint64_t key) const;

  /// Same answer as MaybeContains(key) for the probe's key. A probe built
  /// for another geometry falls back to hashing its key for this filter.
  bool MaybeContains(const BloomProbe& probe) const {
    if (probe.num_bits_ != num_bits_ || probe.num_hashes_ != num_hashes_) {
      return MaybeContains(probe.key_);
    }
    for (int i = 0; i < num_hashes_; ++i) {
      if ((bits_[probe.words_[i]] & probe.masks_[i]) == 0) return false;
    }
    return true;
  }

  void Clear();

  /// Bitwise union with another filter of identical geometry.
  void UnionWith(const BloomFilter& other);

  size_t num_bits() const { return num_bits_; }
  int num_hashes() const { return num_hashes_; }
  size_t CountSetBits() const;
  uint64_t num_insertions() const { return insertions_; }
  /// The filter's 64-bit words, bit p at word p / 64, bit p % 64.
  const std::vector<uint64_t>& words() const { return bits_; }

  /// Theoretical false-positive rate for the current insertion count:
  /// (1 - e^{-kn/m})^k.
  double EstimatedFpRate() const;

  bool operator==(const BloomFilter& other) const {
    return num_bits_ == other.num_bits_ && num_hashes_ == other.num_hashes_ &&
           bits_ == other.bits_;
  }

 private:
  size_t num_bits_;
  int num_hashes_;
  std::vector<uint64_t> bits_;
  uint64_t insertions_ = 0;
};

}  // namespace flower

#endif  // FLOWERCDN_BLOOM_BLOOM_FILTER_H_
