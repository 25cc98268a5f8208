#include "ptx/dtype.h"

namespace cac::ptx {

std::string to_string(TypeClass cls) {
  switch (cls) {
    case TypeClass::UI: return "UI";
    case TypeClass::SI: return "SI";
    case TypeClass::BD: return "BD";
  }
  return "?";
}

std::string to_string(const DType& t) {
  return to_string(t.cls) + " " + std::to_string(t.width);
}

std::string to_string(Space ss) {
  switch (ss) {
    case Space::Global: return "Global";
    case Space::Const: return "Const";
    case Space::Shared: return "Shared";
    case Space::Param: return "Param";
  }
  return "?";
}

DType dtype_from_suffix(std::string_view suffix) {
  if (suffix.size() < 2) {
    throw PtxError("bad type suffix: ." + std::string(suffix));
  }
  const char cls_ch = suffix[0];
  const std::string_view width_str = suffix.substr(1);
  unsigned width = 0;
  if (width_str == "8") width = 8;
  else if (width_str == "16") width = 16;
  else if (width_str == "32") width = 32;
  else if (width_str == "64") width = 64;
  else throw PtxError("bad type width: ." + std::string(suffix));

  switch (cls_ch) {
    case 'u': return UI(static_cast<std::uint8_t>(width));
    case 's': return SI(static_cast<std::uint8_t>(width));
    case 'b': return BD(static_cast<std::uint8_t>(width));
    default: throw PtxError("bad type class: ." + std::string(suffix));
  }
}

}  // namespace cac::ptx
