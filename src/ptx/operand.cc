#include "ptx/operand.h"

namespace cac::ptx {

namespace {

const char* sreg_name(SregKind k) {
  switch (k) {
    case SregKind::Tid: return "tid";
    case SregKind::CtaId: return "ctaid";
    case SregKind::NTid: return "ntid";
    case SregKind::NCtaId: return "nctaid";
  }
  return "?";
}

char dim_name(Dim d) {
  switch (d) {
    case Dim::X: return 'x';
    case Dim::Y: return 'y';
    case Dim::Z: return 'z';
  }
  return '?';
}

}  // namespace

void append_text(std::string& out, const Reg& r) {
  out += r.cls == TypeClass::SI ? "%s" : "%r";
  if (r.width == 64) out += 'd';
  if (r.width == 16) out += 'h';
  append_decimal(out, r.index);
}

void append_text(std::string& out, const Pred& p) {
  out += "%p";
  append_decimal(out, p.index);
}

void append_text(std::string& out, const Sreg& s) {
  out += '%';
  out += sreg_name(s.kind);
  out += '.';
  out += dim_name(s.dim);
}

void append_text(std::string& out, const Operand& op) {
  struct Visitor {
    std::string& out;
    void operator()(const Reg& r) const { append_text(out, r); }
    void operator()(const Sreg& s) const { append_text(out, s); }
    void operator()(const Imm& i) const { append_decimal(out, i.value); }
    void operator()(const RegImm& ri) const {
      out += '[';
      append_text(out, ri.reg);
      if (ri.offset >= 0) out += '+';
      append_decimal(out, ri.offset);
      out += ']';
    }
  };
  std::visit(Visitor{out}, op);
}

namespace {

template <class T>
std::string printed(const T& v) {
  std::string s;
  append_text(s, v);
  return s;
}

}  // namespace

std::string to_string(const Reg& r) { return printed(r); }
std::string to_string(const Pred& p) { return printed(p); }
std::string to_string(const Sreg& s) { return printed(s); }
std::string to_string(const Operand& op) { return printed(op); }

}  // namespace cac::ptx
