// Data types and state spaces of the formal PTX model (paper Table I).
//
//   dty : {UI, SI, BD} x N          -- class and bit width
//   ss  : {Global, Const, Shared}   -- memory state spaces (we add Param,
//                                      the space kernel arguments live in;
//                                      the paper folds ld.param into Mov)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "support/diag.h"

namespace cac::ptx {

/// Type classes of the model: unsigned integer, signed integer, raw
/// byte data.  (The paper's prototype covers UI and SI for registers
/// and BD for untyped memory bytes; floating point is future work.)
enum class TypeClass : std::uint8_t { UI, SI, BD };

/// A PTX data type: class plus bit width (8/16/32/64).
struct DType {
  TypeClass cls = TypeClass::UI;
  std::uint8_t width = 32;

  friend bool operator==(const DType&, const DType&) = default;

  [[nodiscard]] bool is_signed() const { return cls == TypeClass::SI; }
  [[nodiscard]] unsigned bytes() const { return width / 8u; }
};

/// Convenience constructors mirroring the paper's `UI 32` notation.
constexpr DType UI(std::uint8_t w) { return {TypeClass::UI, w}; }
constexpr DType SI(std::uint8_t w) { return {TypeClass::SI, w}; }
constexpr DType BD(std::uint8_t w) { return {TypeClass::BD, w}; }

/// Memory state spaces (paper Table I `ss`).  `Param` holds kernel
/// arguments: the paper's hand translation replaces `ld.param` with
/// `Mov`; our mechanical lowering reads the bytes from Param space
/// instead, which is observationally the same (see DESIGN.md).
enum class Space : std::uint8_t { Global, Const, Shared, Param };

inline constexpr Space kAllSpaces[] = {Space::Global, Space::Const,
                                       Space::Shared, Space::Param};

std::string to_string(TypeClass cls);
std::string to_string(const DType& t);
std::string to_string(Space ss);

/// Parse a PTX type suffix such as "u32", "s64", "b8", "pred".
/// Throws PtxError on an unknown suffix.
DType dtype_from_suffix(std::string_view suffix);

}  // namespace cac::ptx
