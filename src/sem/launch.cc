#include "sem/launch.h"

#include <algorithm>

#include "support/diag.h"

namespace cac::sem {

Launch::Launch(const ptx::Program& prg, KernelConfig kc, mem::MemSizes sizes)
    : prg_(&prg), kc_(kc) {
  sizes.param = std::max<std::uint64_t>(sizes.param, prg.param_bytes());
  sizes.shared_banks = kc.num_blocks();
  memory_ = mem::Memory(sizes);
}

Launch& Launch::param(const std::string& name, std::uint64_t value) {
  const ptx::ParamSlot& slot = prg_->param(name);
  switch (slot.type.bytes()) {
    case 1: {
      const auto b = static_cast<std::uint8_t>(value);
      memory_.write_init(mem::Space::Param, slot.offset, &b, 1);
      break;
    }
    case 2: {
      const auto h = static_cast<std::uint16_t>(value);
      memory_.write_init(mem::Space::Param, slot.offset, &h, 2);
      break;
    }
    case 4:
      memory_.init_u32(mem::Space::Param, slot.offset,
                       static_cast<std::uint32_t>(value));
      break;
    case 8:
      memory_.init_u64(mem::Space::Param, slot.offset, value);
      break;
    default:
      throw KernelError("bad parameter width");
  }
  return *this;
}

Launch& Launch::global_u32(std::uint64_t addr, std::uint32_t v) {
  memory_.init_u32(mem::Space::Global, addr, v);
  return *this;
}

Launch& Launch::const_u32(std::uint64_t addr, std::uint32_t v) {
  memory_.init_u32(mem::Space::Const, addr, v);
  return *this;
}

Launch LaunchSpec::to_launch(const ptx::Program& prg,
                             std::uint64_t min_shared_bytes) const {
  mem::MemSizes sizes;
  sizes.global = global_bytes;
  sizes.shared = std::max(shared_bytes, min_shared_bytes);
  Launch launch(prg, to_config(), sizes);
  for (const auto& [name, value] : params) launch.param(name, value);
  for (const auto& [addr, value] : inits) launch.global_u32(addr, value);
  return launch;
}

namespace {

/// Strict full-string unsigned parse (0x/octal prefixes accepted);
/// rejects empty strings, signs, and trailing junk.
std::uint64_t parse_u64_strict(const std::string& flag,
                               const std::string& s) {
  if (s.empty() || s[0] == '-' || s[0] == '+') {
    throw LaunchArgError(flag + ": expected an unsigned number, got '" + s +
                         "'");
  }
  std::size_t pos = 0;
  std::uint64_t v = 0;
  try {
    v = std::stoull(s, &pos, 0);
  } catch (const std::exception&) {
    throw LaunchArgError(flag + ": expected an unsigned number, got '" + s +
                         "'");
  }
  if (pos != s.size()) {
    throw LaunchArgError(flag + ": trailing characters in number '" + s +
                         "'");
  }
  return v;
}

/// A warp size: 1..UINT32_MAX.  Zero would make generate_grid loop,
/// and wider values would be truncated.
std::uint32_t parse_warp_strict(const std::string& flag, const std::string& s) {
  const std::uint64_t v = parse_u64_strict(flag, s);
  if (v == 0 || v > UINT32_MAX) {
    throw LaunchArgError(flag + ": warp size must be in 1.." +
                         std::to_string(UINT32_MAX) + ", got '" + s + "'");
  }
  return static_cast<std::uint32_t>(v);
}

Dim3 parse_dim3_strict(const std::string& flag, const std::string& s) {
  Dim3 d{1, 1, 1};
  std::uint32_t* slots[3] = {&d.x, &d.y, &d.z};
  std::size_t start = 0;
  int i = 0;
  for (;; ++i) {
    if (i >= 3) {
      throw LaunchArgError(flag + ": expected X[,Y[,Z]], got '" + s + "'");
    }
    const std::size_t comma = s.find(',', start);
    const std::string piece =
        s.substr(start, comma == std::string::npos ? comma : comma - start);
    *slots[i] = static_cast<std::uint32_t>(parse_u64_strict(flag, piece));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return d;
}

std::pair<std::string, std::string> split_eq_strict(const std::string& flag,
                                                    const std::string& s) {
  const auto eq = s.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw LaunchArgError(flag + ": expected NAME=VALUE, got '" + s + "'");
  }
  return {s.substr(0, eq), s.substr(eq + 1)};
}

}  // namespace

std::vector<std::string> parse_launch_args(
    const std::vector<std::string>& args, LaunchSpec& spec) {
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto next = [&]() -> const std::string& {
      if (++i >= args.size()) {
        throw LaunchArgError("missing value for " + a);
      }
      return args[i];
    };
    if (a == "--grid") {
      spec.grid = parse_dim3_strict(a, next());
    } else if (a == "--block") {
      spec.block = parse_dim3_strict(a, next());
    } else if (a == "--warp") {
      spec.warp_size = parse_warp_strict(a, next());
    } else if (a == "--global") {
      spec.global_bytes = parse_u64_strict(a, next());
    } else if (a == "--shared") {
      spec.shared_bytes = parse_u64_strict(a, next());
    } else if (a == "--param") {
      const auto [k, v] = split_eq_strict(a, next());
      spec.params.emplace_back(k, parse_u64_strict(a, v));
    } else if (a == "--init") {
      const auto [k, v] = split_eq_strict(a, next());
      spec.inits.emplace_back(
          parse_u64_strict(a, k),
          static_cast<std::uint32_t>(parse_u64_strict(a, v)));
    } else {
      rest.push_back(a);
    }
  }
  return rest;
}

}  // namespace cac::sem
