#include "ptx/program.h"

#include <algorithm>
#include <optional>

#include "support/diag.h"

namespace cac::ptx {

const Instr& Program::fetch(std::uint32_t pc) const {
  if (pc >= code_.size()) {
    throw KernelError("program counter " + std::to_string(pc) +
                      " out of range in kernel '" + name_ + "' (size " +
                      std::to_string(code_.size()) + ")");
  }
  return code_[pc];
}

const ParamSlot& Program::param(const std::string& name) const {
  for (const auto& p : params_) {
    if (p.name == name) return p;
  }
  throw PtxError("kernel '" + name_ + "' has no parameter '" + name + "'");
}

std::uint32_t Program::param_bytes() const {
  std::uint32_t end = 0;
  for (const auto& p : params_) {
    end = std::max(end, p.offset + p.type.bytes());
  }
  return end;
}

namespace {

struct TargetVisitor {
  // Returns the branch target if the instruction has one.
  std::optional<std::uint32_t> operator()(const IBra& i) const {
    return i.target;
  }
  std::optional<std::uint32_t> operator()(const IPBra& i) const {
    return i.target;
  }
  template <typename T>
  std::optional<std::uint32_t> operator()(const T&) const {
    return std::nullopt;
  }
};

}  // namespace

std::vector<ProgramIssue> validate(const Program& prg) {
  std::vector<ProgramIssue> issues;
  if (prg.empty()) {
    issues.push_back({0, "program is empty"});
    return issues;
  }
  const auto& code = prg.code();
  for (std::uint32_t pc = 0; pc < code.size(); ++pc) {
    if (auto tgt = std::visit(TargetVisitor{}, code[pc])) {
      if (*tgt >= code.size()) {
        issues.push_back({pc, "branch target " + std::to_string(*tgt) +
                                  " out of range"});
      }
    }
  }
  const Instr& last = code.back();
  if (!is_exit(last) && !std::holds_alternative<IBra>(last)) {
    issues.push_back(
        {static_cast<std::uint32_t>(code.size() - 1),
         "last instruction can fall through past the end of the program"});
  }
  return issues;
}

std::size_t InstrHistogram::total() const {
  std::size_t t = 0;
  for (std::size_t c : counts) t += c;
  return t;
}

InstrHistogram histogram(const Program& prg) {
  InstrHistogram h;
  for (const auto& i : prg.code()) ++h.counts[i.index()];
  return h;
}

void append_text(std::string& out, const Program& prg) {
  out += ".kernel " + prg.name() + "\n";
  for (const auto& p : prg.params()) {
    out += "  .param " + to_string(p.type) + " " + p.name + " @" +
           std::to_string(p.offset) + "\n";
  }
  std::uint32_t pc = 0;
  for (const auto& i : prg.code()) {
    out += "  [";
    append_decimal(out, pc++);
    out += "] ";
    append_text(out, i);
    out += '\n';
  }
}

std::string to_string(const Program& prg) {
  std::string out;
  append_text(out, prg);
  return out;
}

}  // namespace cac::ptx
