#include "mem/memory.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "support/binio.h"
#include "support/diag.h"

namespace cac::mem {

namespace {

[[noreturn]] void oob(const char* what, Space ss, std::uint64_t addr) {
  throw KernelError(std::string(what) + ": " + ptx::to_string(ss) + "[" +
                    std::to_string(addr) + "]");
}

}  // namespace

std::uint64_t MemSizes::of(Space ss) const {
  switch (ss) {
    case Space::Global: return global;
    case Space::Const: return constant;
    case Space::Shared: return shared;
    case Space::Param: return param;
  }
  return 0;
}

std::uint64_t Memory::Bank::hash() const {
  return hash_.get_or([&] {
    Hasher h;
    h.mix(bytes.size());
    h.mix_words(bytes.data(), bytes.size());
    h.mix_words(valid.data(), valid.size() * sizeof(std::uint64_t));
    return h.value();
  });
}

void Memory::Bank::encode(support::BinWriter& w) const {
  w.u64(bytes.size());
  w.bytes(bytes.data(), bytes.size());
  w.bytes(valid.data(), valid.size() * sizeof(std::uint64_t));
}

Memory::Bank Memory::Bank::decode(support::BinReader& r) {
  const std::uint64_t n = r.count();
  Bank b(n);
  r.bytes(b.bytes.data(), n);
  r.bytes(b.valid.data(), b.valid.size() * sizeof(std::uint64_t));
  // Re-check the zero-tail-bits invariant: operator== and hash()
  // depend on it, so a violating bitmap would corrupt dedup.
  if (n % 64 != 0 && !b.valid.empty() &&
      (b.valid.back() >> (n % 64)) != 0) {
    throw support::BinError("valid bitmap has nonzero tail bits");
  }
  return b;
}

Memory::Memory()
    : global_(std::make_shared<Bank>()),
      constant_(std::make_shared<Bank>()),
      param_(std::make_shared<Bank>()) {}

Memory::Memory(const MemSizes& sizes)
    : global_(std::make_shared<Bank>(sizes.global)),
      constant_(std::make_shared<Bank>(sizes.constant)),
      param_(std::make_shared<Bank>(sizes.param)),
      shared_per_block_(sizes.shared) {
  shared_.reserve(sizes.shared_banks);
  for (std::uint32_t b = 0; b < sizes.shared_banks; ++b) {
    shared_.push_back(std::make_shared<Bank>(sizes.shared));
  }
}

Memory::Memory(BankRef global, BankRef constant, std::vector<BankRef> shared,
               BankRef param, std::uint64_t shared_per_block)
    : global_(std::move(global)),
      constant_(std::move(constant)),
      shared_(std::move(shared)),
      param_(std::move(param)),
      shared_per_block_(shared_per_block) {}

Memory Memory::from_banks(BankRef global, BankRef constant,
                          std::vector<BankRef> shared, BankRef param,
                          std::uint64_t shared_per_block) {
  return Memory(std::move(global), std::move(constant), std::move(shared),
                std::move(param), shared_per_block);
}

const Memory::Bank& Memory::ro(Space ss) const {
  switch (ss) {
    case Space::Global: return *global_;
    case Space::Const: return *constant_;
    case Space::Param: return *param_;
    case Space::Shared: break;
  }
  throw KernelError("bad state space");
}

const Memory::Bank& Memory::shared_ro(std::uint64_t addr,
                                      std::uint64_t& off) const {
  const std::uint64_t bank = addr / shared_per_block_;
  off = addr % shared_per_block_;
  return *shared_[bank];
}

Memory::Bank& Memory::unique_bank(BankRef& slot) {
  if (slot.use_count() != 1) slot = std::make_shared<Bank>(*slot);
  // The bank is uniquely ours now; shedding const is safe, and the
  // memoized hash must go stale before the caller writes.
  auto& b = const_cast<Bank&>(*slot);
  b.invalidate_hash();
  return b;
}

Memory::Bank& Memory::mut(Space ss, std::uint64_t addr, std::uint64_t& off) {
  off = addr;
  switch (ss) {
    case Space::Global: return unique_bank(global_);
    case Space::Const: return unique_bank(constant_);
    case Space::Param: return unique_bank(param_);
    case Space::Shared: {
      const std::uint64_t bank = addr / shared_per_block_;
      off = addr % shared_per_block_;
      return unique_bank(shared_[bank]);
    }
  }
  throw KernelError("bad state space");
}

std::uint64_t Memory::size(Space ss) const {
  if (ss == Space::Shared) return shared_total();
  return ro(ss).bytes.size();
}

bool Memory::in_bounds(Space ss, std::uint64_t addr,
                       std::uint32_t len) const {
  const std::uint64_t n = size(ss);
  return addr <= n && len <= n - addr;
}

Cell Memory::cell(Space ss, std::uint64_t addr) const {
  if (addr >= size(ss)) oob("memory access out of bounds", ss, addr);
  if (ss == Space::Shared) {
    std::uint64_t off = 0;
    const Bank& b = shared_ro(addr, off);
    return Cell{b.bytes[off], b.valid_bit(off)};
  }
  const Bank& b = ro(ss);
  return Cell{b.bytes[addr], b.valid_bit(addr)};
}

std::uint64_t Memory::load(Space ss, std::uint64_t addr,
                           std::uint32_t len) const {
  assert(len == 1 || len == 2 || len == 4 || len == 8);
  const std::uint64_t n = size(ss);
  if (addr >= n || len > n - addr) {
    // Name the first out-of-range byte, as the per-cell loop used to.
    oob("memory access out of bounds", ss, std::max<std::uint64_t>(addr, n));
  }
  std::uint64_t v = 0;
  if (ss == Space::Shared) {
    if (shared_single_bank(addr, len)) {
      std::uint64_t off = 0;
      const Bank& b = shared_ro(addr, off);
      std::memcpy(&v, b.bytes.data() + off, len);  // little-endian host
    } else {
      // Range straddles a block-bank boundary: assemble byte-wise.
      auto* p = reinterpret_cast<std::uint8_t*>(&v);
      for (std::uint32_t i = 0; i < len; ++i) {
        std::uint64_t off = 0;
        p[i] = shared_ro(addr + i, off).bytes[off];
      }
    }
    return v;
  }
  std::memcpy(&v, ro(ss).bytes.data() + addr, len);  // little-endian host
  return v;
}

bool Memory::all_valid(Space ss, std::uint64_t addr,
                       std::uint32_t len) const {
  const std::uint64_t n = size(ss);
  for (std::uint32_t i = 0; i < len; ++i) {
    const std::uint64_t a = addr + i;
    if (a >= n) oob("memory access out of bounds", ss, a);
    if (ss == Space::Shared) {
      std::uint64_t off = 0;
      const Bank& b = shared_ro(a, off);
      if (!b.valid_bit(off)) return false;
    } else if (!ro(ss).valid_bit(a)) {
      return false;
    }
  }
  return true;
}

void Memory::store(Space ss, std::uint64_t addr, std::uint32_t len,
                   std::uint64_t value, bool valid) {
  assert(len == 1 || len == 2 || len == 4 || len == 8);
  const std::uint64_t n = size(ss);
  if (addr >= n || len > n - addr) {
    oob("memory store out of bounds", ss, addr);
  }
  if (ss == Space::Shared && !shared_single_bank(addr, len)) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    for (std::uint32_t i = 0; i < len; ++i) {
      std::uint64_t off = 0;
      Bank& b = mut(ss, addr + i, off);
      b.bytes[off] = p[i];
      b.set_valid_bit(off, valid);
    }
  } else {
    std::uint64_t off = 0;
    Bank& b = mut(ss, addr, off);
    std::memcpy(b.bytes.data() + off, &value, len);  // little-endian host
    for (std::uint32_t i = 0; i < len; ++i) b.set_valid_bit(off + i, valid);
  }
  hash_.invalidate();
}

void Memory::write_init(Space ss, std::uint64_t addr, const void* data,
                        std::size_t len) {
  const std::uint64_t n = size(ss);
  if (addr >= n || len > n - addr) {
    oob("init write out of bounds", ss, addr);
  }
  const auto* src = static_cast<const std::uint8_t*>(data);
  if (ss == Space::Shared && len != 0 &&
      !shared_single_bank(addr, static_cast<std::uint32_t>(len))) {
    for (std::size_t i = 0; i < len; ++i) {
      std::uint64_t off = 0;
      Bank& b = mut(ss, addr + i, off);
      b.bytes[off] = src[i];
      b.set_valid_bit(off, true);
    }
  } else {
    std::uint64_t off = 0;
    Bank& b = mut(ss, addr, off);
    std::memcpy(b.bytes.data() + off, data, len);
    for (std::size_t i = 0; i < len; ++i) b.set_valid_bit(off + i, true);
  }
  hash_.invalidate();
}

void Memory::init_u32(Space ss, std::uint64_t addr, std::uint32_t v) {
  std::uint8_t b[4];
  std::memcpy(b, &v, 4);  // host is little-endian like the device
  write_init(ss, addr, b, 4);
}

void Memory::init_u64(Space ss, std::uint64_t addr, std::uint64_t v) {
  std::uint8_t b[8];
  std::memcpy(b, &v, 8);
  write_init(ss, addr, b, 8);
}

void Memory::commit_shared(std::uint32_t block) {
  if (block >= shared_.size() || shared_per_block_ == 0) return;
  Bank& b = unique_bank(shared_[block]);
  std::fill(b.valid.begin(), b.valid.end(), ~0ull);
  // Keep the unused tail bits of the last word zero so equality and
  // hashing stay exact.
  const std::uint64_t n = b.bytes.size();
  if ((n & 63) != 0 && !b.valid.empty()) {
    b.valid.back() &= (1ull << (n & 63)) - 1;
  }
  hash_.invalidate();
}

void Memory::set_all_valid(Space ss, bool valid) {
  const auto fill = [valid](Bank& b) {
    std::fill(b.valid.begin(), b.valid.end(), valid ? ~0ull : 0ull);
    const std::uint64_t n = b.bytes.size();
    if (valid && (n & 63) != 0 && !b.valid.empty()) {
      b.valid.back() &= (1ull << (n & 63)) - 1;
    }
  };
  if (ss == Space::Shared) {
    for (BankRef& ref : shared_) fill(unique_bank(ref));
  } else {
    switch (ss) {
      case Space::Global: fill(unique_bank(global_)); break;
      case Space::Const: fill(unique_bank(constant_)); break;
      case Space::Param: fill(unique_bank(param_)); break;
      case Space::Shared: break;
    }
  }
  hash_.invalidate();
}

const Memory::BankRef& Memory::bank_ref(Space ss) const {
  switch (ss) {
    case Space::Global: return global_;
    case Space::Const: return constant_;
    case Space::Param: return param_;
    case Space::Shared: break;
  }
  throw KernelError("bank_ref: Shared is per-block (use shared_bank_refs)");
}

bool operator==(const Memory& a, const Memory& b) {
  const auto bank_eq = [](const Memory::BankRef& x, const Memory::BankRef& y) {
    return x == y || *x == *y;
  };
  if (!bank_eq(a.global_, b.global_) || !bank_eq(a.constant_, b.constant_) ||
      !bank_eq(a.param_, b.param_)) {
    return false;
  }
  if (a.shared_per_block_ != b.shared_per_block_ ||
      a.shared_.size() != b.shared_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.shared_.size(); ++i) {
    if (!bank_eq(a.shared_[i], b.shared_[i])) return false;
  }
  return true;
}

std::uint64_t Memory::hash() const {
  return hash_.get_or([&] {
    Hasher h;
    h.mix(global_->hash());
    h.mix(constant_->hash());
    h.mix(shared_.size());
    for (const BankRef& b : shared_) h.mix(b->hash());
    h.mix(param_->hash());
    return h.value();
  });
}

std::string Memory::dump(Space ss, std::uint64_t addr,
                         std::uint32_t len) const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (std::uint32_t i = 0; i < len; ++i) {
    if (i && i % 16 == 0) out += '\n';
    const Cell c = cell(ss, addr + i);
    out += kHex[c.byte >> 4];
    out += kHex[c.byte & 0xf];
    out += c.valid ? ' ' : '!';
  }
  return out;
}

}  // namespace cac::mem
