// Programs (paper §III-6): a program `prg` is a list of PTX
// instructions; the program counter indexes into it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ptx/instr.h"

namespace cac::ptx {

/// A kernel parameter as seen after lowering: a named, sized slot in
/// Param space.  `offset` is the byte offset of the slot.
struct ParamSlot {
  std::string name;
  DType type;
  std::uint32_t offset = 0;

  friend bool operator==(const ParamSlot&, const ParamSlot&) = default;
};

/// A lowered PTX kernel in model form.
class Program {
 public:
  Program() = default;
  Program(std::string name, std::vector<Instr> code,
          std::vector<ParamSlot> params = {})
      : name_(std::move(name)),
        code_(std::move(code)),
        params_(std::move(params)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Instr>& code() const { return code_; }
  [[nodiscard]] const std::vector<ParamSlot>& params() const {
    return params_;
  }
  [[nodiscard]] std::size_t size() const { return code_.size(); }
  [[nodiscard]] bool empty() const { return code_.empty(); }

  /// Fetch the instruction at `pc`.  Throws KernelError if `pc` is out
  /// of range: well-formed programs end every path with Exit, so the
  /// semantics never run off the end.
  [[nodiscard]] const Instr& fetch(std::uint32_t pc) const;

  /// Byte offset of a named parameter slot; throws PtxError if absent.
  [[nodiscard]] const ParamSlot& param(const std::string& name) const;

  /// Total bytes of Param space this kernel uses.
  [[nodiscard]] std::uint32_t param_bytes() const;

  friend bool operator==(const Program&, const Program&) = default;

 private:
  std::string name_;
  std::vector<Instr> code_;
  std::vector<ParamSlot> params_;
};

/// Structural well-formedness issues found by `validate`.
struct ProgramIssue {
  std::uint32_t pc = 0;
  std::string message;
};

/// Static well-formedness validation: all branch targets in range, the
/// program is non-empty, every fall-through path is terminated by Exit
/// (i.e. the final instruction is Exit or an unconditional Bra), and
/// predicated branches are the only predicated instructions.
std::vector<ProgramIssue> validate(const Program& prg);

/// Per-variant instruction histogram; used by the Table I model
/// inventory bench.
struct InstrHistogram {
  std::size_t counts[std::variant_size_v<Instr>] = {};
  [[nodiscard]] std::size_t total() const;
};
InstrHistogram histogram(const Program& prg);

/// The canonical listing of a kernel: its name, parameter slots and
/// one numbered line per instruction.  `append_text` writes the same
/// bytes onto the end of `out` (the verdict cache's key is built that
/// way, and `sched::program_fingerprint` hashes them).
void append_text(std::string& out, const Program& prg);
std::string to_string(const Program& prg);

}  // namespace cac::ptx
