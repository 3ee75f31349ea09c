// Canonical protocol trace categories: interned ids + their strings.
//
// CoCore emitters, tests, the fuzzer oracle, co_inspect and the binary
// tracer all match on these; a typo in a free-floating literal silently
// breaks a consumer, so every category lives here and nowhere else. The
// CatId enum is the interned form carried in fixed-size trace records
// (src/obs/trace/record.h); cat_name() maps back to the one canonical
// string per category.
#pragma once

#include <cstdint>
#include <string_view>

namespace co::proto::cat {

inline constexpr std::string_view kSend = "send";       // PDU broadcast
inline constexpr std::string_view kAccept = "accept";   // acceptance (§4.2)
inline constexpr std::string_view kPark = "park";       // out-of-order parked
inline constexpr std::string_view kDup = "dup";         // duplicate dropped
inline constexpr std::string_view kMalformed = "malformed"; // shape-invalid PDU dropped
inline constexpr std::string_view kF1 = "f1";           // failure cond. (1)
inline constexpr std::string_view kF2 = "f2";           // failure cond. (2)
inline constexpr std::string_view kRet = "ret";         // RET request sent
inline constexpr std::string_view kRtx = "rtx";         // rebroadcast
inline constexpr std::string_view kPack = "pack";       // pre-ack (§4.4)
inline constexpr std::string_view kAck = "ack";         // ack (§4.5)
inline constexpr std::string_view kDeliver = "deliver"; // handed to the app
inline constexpr std::string_view kProbe = "probe";     // tail-loss probe

/// Interned category id — the wire form used by fixed-size binary trace
/// records. Values are part of the trace-file format (docs/OBSERVABILITY.md):
/// append only, never renumber.
enum class CatId : std::uint8_t {
  kSend = 0,
  kAccept = 1,
  kPark = 2,
  kDup = 3,
  kMalformed = 4,
  kF1 = 5,
  kF2 = 6,
  kRet = 7,
  kRtx = 8,
  kPack = 9,
  kAck = 10,
  kDeliver = 11,
  kProbe = 12,
};
inline constexpr std::size_t kCatCount = 13;

/// The canonical string for an interned category; "?" for out-of-range ids
/// (a corrupt trace record must not index out of bounds).
constexpr std::string_view cat_name(CatId id) {
  switch (id) {
    case CatId::kSend: return kSend;
    case CatId::kAccept: return kAccept;
    case CatId::kPark: return kPark;
    case CatId::kDup: return kDup;
    case CatId::kMalformed: return kMalformed;
    case CatId::kF1: return kF1;
    case CatId::kF2: return kF2;
    case CatId::kRet: return kRet;
    case CatId::kRtx: return kRtx;
    case CatId::kPack: return kPack;
    case CatId::kAck: return kAck;
    case CatId::kDeliver: return kDeliver;
    case CatId::kProbe: return kProbe;
  }
  return "?";
}

}  // namespace co::proto::cat
