#include "util/combinations.h"

#include <limits>
#include <numeric>

namespace htd::util {

int64_t BinomialCapped(int n, int s) {
  if (s < 0 || s > n) return 0;
  if (s == 0 || s == n) return 1;
  const int64_t cap = std::numeric_limits<int64_t>::max() / 4;
  int64_t result = 1;
  s = std::min(s, n - s);
  for (int i = 1; i <= s; ++i) {
    // result * (n - s + i) / i is exact because result is always a binomial.
    // Dividing by g = gcd(result, i) first leaves i / g dividing n - s + i,
    // so the product below IS the next binomial: when it overflows int64_t
    // the true value is past the cap too.
    const int64_t g = std::gcd(result, static_cast<int64_t>(i));
    if (__builtin_mul_overflow(result / g, (n - s + i) / (i / g), &result)) {
      return cap;
    }
    if (result >= cap) return cap;
  }
  return result;
}

SubsetEnumerator::SubsetEnumerator(int n, int min_size, int max_size)
    : n_(n), max_size_(std::min(max_size, n)), current_size_(min_size) {
  HTD_CHECK_GE(min_size, 0);
  HTD_CHECK_LE(min_size, max_size);
}

bool SubsetEnumerator::StartSize(int s) {
  if (s > max_size_ || s > n_) return false;
  indices_.resize(s);
  for (int i = 0; i < s; ++i) indices_[i] = i;
  current_size_ = s;
  return true;
}

bool SubsetEnumerator::Next() {
  if (!started_) {
    started_ = true;
    int s = current_size_;
    while (s <= max_size_) {
      if (StartSize(s)) return true;
      ++s;
    }
    return false;
  }
  int s = current_size_;
  // Standard lexicographic successor.
  int i = s - 1;
  while (i >= 0 && indices_[i] == n_ - s + i) --i;
  if (i < 0) {
    return StartSize(s + 1);
  }
  ++indices_[i];
  for (int j = i + 1; j < s; ++j) indices_[j] = indices_[j - 1] + 1;
  return true;
}

FixedFirstEnumerator::FixedFirstEnumerator(int n, int s, int first) : n_(n), s_(s) {
  HTD_CHECK_GE(s, 1);
  indices_.resize(s);
  indices_[0] = first;
}

bool FixedFirstEnumerator::Next() {
  int s = s_;
  if (!started_) {
    started_ = true;
    if (indices_[0] + s > n_) return false;
    for (int i = 1; i < s; ++i) indices_[i] = indices_[0] + i;
    return true;
  }
  // Lexicographic successor with indices_[0] pinned.
  int i = s - 1;
  while (i >= 1 && indices_[i] == n_ - s + i) --i;
  if (i < 1) return false;
  ++indices_[i];
  for (int j = i + 1; j < s; ++j) indices_[j] = indices_[j - 1] + 1;
  return true;
}

std::vector<SubsetChunk> MakeSubsetChunks(int n, int k, int first_limit) {
  std::vector<SubsetChunk> chunks;
  first_limit = std::min(first_limit, n);
  for (int s = 1; s <= std::min(k, n); ++s) {
    for (int first = 0; first < first_limit && first + s <= n; ++first) {
      chunks.push_back({s, first});
    }
  }
  return chunks;
}

}  // namespace htd::util
