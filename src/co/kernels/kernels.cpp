// Scalar reference backend + the one-shot backend selection.
#include "src/co/kernels/kernels.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "src/co/kernels/kernels_impl.h"

namespace co::proto::kern {

namespace {

bool s_merge_max(SeqNo* row, const SeqNo* ack, const SeqNo* mins,
                 std::size_t n) {
  bool dirty = false;
  for (std::size_t k = 0; k < n; ++k)
    dirty |= detail::merge_max_lane(row, ack, mins, k);
  return dirty;
}

void s_column_mins(const SeqNo* table, std::size_t rows, std::size_t cols,
                   std::size_t stride, SeqNo* out) {
  if (rows == 0) {
    for (std::size_t k = 0; k < cols; ++k) out[k] = ~SeqNo{0};
    return;
  }
  // copy_n, not memcpy: at cols == 0 both pointers may be null.
  std::copy_n(table, cols, out);
  for (std::size_t r = 1; r < rows; ++r) {
    const SeqNo* row = table + r * stride;
    for (std::size_t k = 0; k < cols; ++k)
      if (row[k] < out[k]) out[k] = row[k];
  }
}

void s_loss_scan(const SeqNo* ack, const SeqNo* req, SeqNo* known_max,
                 std::size_t n, std::uint64_t* mask) {
  for (std::size_t w = 0; w < mask_words(n); ++w) mask[w] = 0;
  for (std::size_t k = 0; k < n; ++k)
    if (detail::loss_scan_lane(ack, req, known_max, k))
      mask[k / 64] |= std::uint64_t{1} << (k % 64);
}

void s_lt_mask(const SeqNo* a, const SeqNo* b, std::size_t n,
               std::uint64_t* mask) {
  for (std::size_t w = 0; w < mask_words(n); ++w) mask[w] = 0;
  detail::lt_mask_tail(a, b, 0, n, mask);
}

std::size_t s_causal_gate(const SeqNo* ack, const SeqNo* high, std::size_t n,
                          std::size_t skip) {
  for (std::size_t j = 0; j < n; ++j) {
    if (j == skip) continue;
    if (ack[j] > high[j] + 1) return j;  // mod-2^64 add, like the caller
  }
  return n;
}

bool s_all_set(const std::uint8_t* flags, std::size_t n, std::size_t skip) {
  for (std::size_t j = 0; j < n; ++j) {
    if (j == skip) continue;
    if (flags[j] == 0) return false;
  }
  return true;
}

constexpr KernelOps kScalarOps = {
    "scalar",     s_merge_max,   s_column_mins,
    s_loss_scan,  s_lt_mask,     s_causal_gate,
    s_all_set,
};

}  // namespace

const KernelOps& scalar_ops() { return kScalarOps; }

// Provided by the AVX2 translation unit (x86-64 only).
#if defined(__x86_64__) || defined(_M_X64)
const KernelOps& avx2_ops();
#endif

namespace {

bool avx2_runnable() {
#if (defined(__x86_64__) || defined(_M_X64)) && defined(__GNUC__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool force_scalar_env() {
  const char* v = std::getenv("CO_FORCE_SCALAR");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

const KernelOps* pick() {
  if (force_scalar_env()) return &kScalarOps;
#if defined(__x86_64__) || defined(_M_X64)
  if (avx2_runnable()) return &avx2_ops();
#endif
  return &kScalarOps;
}

}  // namespace

const KernelOps& selected() {
  static const KernelOps* const k = pick();
  return *k;
}

const KernelOps* by_name(std::string_view name) {
  if (name == "scalar") return &kScalarOps;
#if defined(__x86_64__) || defined(_M_X64)
  if (name == "avx2" && avx2_runnable()) return &avx2_ops();
#endif
  return nullptr;
}

std::vector<const KernelOps*> available() {
  std::vector<const KernelOps*> out{&kScalarOps};
#if defined(__x86_64__) || defined(_M_X64)
  if (avx2_runnable()) out.push_back(&avx2_ops());
#endif
  return out;
}

}  // namespace co::proto::kern
