#include "programs/corpus.h"

namespace cac::programs {

using namespace cac::ptx;

std::string vector_add_ptx() {
  // Listing 1 of the paper, parameters renamed as the authors did.
  return R"(
.version 6.0
.target sm_30
.address_size 64

.visible .entry add_vector(
  .param .u64 arr_A,
  .param .u64 arr_B,
  .param .u64 arr_C,
  .param .u32 size
)
{
  .reg .pred %p<2>;
  .reg .u32 %r<9>;
  .reg .u64 %rd<11>;

  ld.param.u64 %rd1, [arr_A];
  ld.param.u64 %rd2, [arr_B];
  ld.param.u64 %rd3, [arr_C];
  ld.param.u32 %r2, [size];

  mov.u32 %r3, %ntid.x;
  mov.u32 %r4, %ctaid.x;
  mov.u32 %r5, %tid.x;
  mad.lo.s32 %r1, %r4, %r3, %r5;

  setp.ge.s32 %p1, %r1, %r2;
  @%p1 bra BB0_2;

  cvta.to.global.u64 %rd4, %rd1;
  mul.wide.s32 %rd5, %r1, 4;
  add.s64 %rd6, %rd4, %rd5;
  cvta.to.global.u64 %rd7, %rd2;
  add.s64 %rd8, %rd7, %rd5;
  ld.global.u32 %r6, [%rd8];
  ld.global.u32 %r7, [%rd6];

  add.s32 %r8, %r6, %r7;
  cvta.to.global.u64 %rd9, %rd3;
  add.s64 %rd10, %rd9, %rd5;
  st.global.u32 [%rd10], %r8;

BB0_2:
  ret;
}
)";
}

ptx::Program vector_add_listing2() {
  // Registers exactly as the paper's Listing 2 defines them.
  const Reg r1{TypeClass::UI, 32, 1}, r2{TypeClass::UI, 32, 2},
      r3{TypeClass::UI, 32, 3}, r4{TypeClass::UI, 32, 4},
      r5{TypeClass::UI, 32, 5}, r6{TypeClass::UI, 32, 6},
      r7{TypeClass::UI, 32, 7}, r8{TypeClass::UI, 32, 8};
  const Reg rd1{TypeClass::UI, 64, 1}, rd2{TypeClass::UI, 64, 2},
      rd3{TypeClass::UI, 64, 3}, rd5{TypeClass::UI, 64, 5},
      rd6{TypeClass::UI, 64, 6}, rd8{TypeClass::UI, 64, 8},
      rd10{TypeClass::UI, 64, 10};
  const Pred p1{1};

  // The paper writes `Mov rd1 arr_A`; a Param-space load of the same
  // slot is the mechanical equivalent (one instruction either way).
  std::vector<Instr> code = {
      /* 0*/ ILd{Space::Param, UI(64), rd1, op_imm(0)},    // arr_A
      /* 1*/ ILd{Space::Param, UI(64), rd2, op_imm(8)},    // arr_B
      /* 2*/ ILd{Space::Param, UI(64), rd3, op_imm(16)},   // arr_C
      /* 3*/ ILd{Space::Param, UI(32), r2, op_imm(24)},    // size
      /* 4*/ IMov{r3, op_sreg(SregKind::NTid, Dim::X)},
      /* 5*/ IMov{r4, op_sreg(SregKind::CtaId, Dim::X)},
      /* 6*/ IMov{r5, op_sreg(SregKind::Tid, Dim::X)},
      /* 7*/ ITop{TerOp::MadLo, SI(32), r1, op_reg(r4), op_reg(r3),
                  op_reg(r5)},
      /* 8*/ ISetp{CmpOp::Ge, SI(32), p1, op_reg(r1), op_reg(r2)},
      /* 9*/ IPBra{p1, false, 18},
      /*10*/ IBop{BinOp::MulWide, SI(32), rd5, op_reg(r1), op_imm(4)},
      /*11*/ IBop{BinOp::Add, SI(64), rd6, op_reg(rd1), op_reg(rd5)},
      /*12*/ IBop{BinOp::Add, SI(64), rd8, op_reg(rd2), op_reg(rd5)},
      /*13*/ ILd{Space::Global, UI(32), r6, op_reg(rd8)},
      /*14*/ ILd{Space::Global, UI(32), r7, op_reg(rd6)},
      /*15*/ IBop{BinOp::Add, SI(32), r8, op_reg(r6), op_reg(r7)},
      /*16*/ IBop{BinOp::Add, SI(64), rd10, op_reg(rd3), op_reg(rd5)},
      /*17*/ ISt{Space::Global, UI(32), op_reg(rd10), r8},
      /*18*/ ISync{},
      /*19*/ IExit{},
  };
  std::vector<ParamSlot> params = {
      {"arr_A", UI(64), 0},
      {"arr_B", UI(64), 8},
      {"arr_C", UI(64), 16},
      {"size", UI(32), 24},
  };
  return Program("add_vector_listing2", std::move(code), std::move(params));
}

std::string xor_cipher_ptx() {
  return R"(
.version 6.0
.target sm_30
.address_size 64

// C[i] = A[i] ^ B[i] for i < size — a one-time-pad keystream XOR.
.visible .entry xor_cipher(
  .param .u64 arr_A,
  .param .u64 arr_B,
  .param .u64 arr_C,
  .param .u32 size
)
{
  .reg .pred %p<2>;
  .reg .u32 %r<9>;
  .reg .u64 %rd<9>;

  ld.param.u64 %rd1, [arr_A];
  ld.param.u64 %rd2, [arr_B];
  ld.param.u64 %rd3, [arr_C];
  ld.param.u32 %r2, [size];

  mov.u32 %r3, %ntid.x;
  mov.u32 %r4, %ctaid.x;
  mov.u32 %r5, %tid.x;
  mad.lo.s32 %r1, %r4, %r3, %r5;

  setp.ge.u32 %p1, %r1, %r2;
  @%p1 bra DONE;

  mul.wide.u32 %rd4, %r1, 4;
  add.u64 %rd5, %rd1, %rd4;
  add.u64 %rd6, %rd2, %rd4;
  ld.global.u32 %r6, [%rd5];
  ld.global.u32 %r7, [%rd6];
  xor.b32 %r8, %r6, %r7;
  add.u64 %rd7, %rd3, %rd4;
  st.global.u32 [%rd7], %r8;

DONE:
  ret;
}
)";
}

std::string scan_signature_ptx() {
  // Thread i sets out[i] = 1 iff pattern[0..plen) == data[i..i+plen).
  // The inner loop is predicated via selp, so its branch is uniform and
  // the only true divergence is the bounds guard.
  return R"(
.version 6.0
.target sm_30
.address_size 64

.visible .entry scan_signature(
  .param .u64 data,
  .param .u64 pattern,
  .param .u64 out,
  .param .u32 dlen,
  .param .u32 plen
)
{
  .reg .pred %p<4>;
  .reg .u32 %r<16>;
  .reg .u64 %rd<10>;

  ld.param.u64 %rd1, [data];
  ld.param.u64 %rd2, [pattern];
  ld.param.u64 %rd3, [out];
  ld.param.u32 %r2, [dlen];
  ld.param.u32 %r3, [plen];

  mov.u32 %r4, %ntid.x;
  mov.u32 %r5, %ctaid.x;
  mov.u32 %r6, %tid.x;
  mad.lo.u32 %r1, %r5, %r4, %r6;

  // guard: i + plen <= dlen
  sub.u32 %r7, %r2, %r3;
  setp.gt.u32 %p1, %r1, %r7;
  @%p1 bra END;

  mov.u32 %r8, 1;           // match flag
  mov.u32 %r9, 0;           // j
LOOP:
  setp.ge.u32 %p2, %r9, %r3;
  @%p2 bra STORE;
  add.u32 %r10, %r1, %r9;
  cvt.u64.u32 %rd4, %r10;
  add.u64 %rd5, %rd1, %rd4;
  ld.global.u8 %r11, [%rd5];
  cvt.u64.u32 %rd6, %r9;
  add.u64 %rd7, %rd2, %rd6;
  ld.global.u8 %r12, [%rd7];
  setp.ne.u32 %p3, %r11, %r12;
  selp.b32 %r8, 0, %r8, %p3;
  add.u32 %r9, %r9, 1;
  bra LOOP;
STORE:
  cvt.u64.u32 %rd8, %r1;
  add.u64 %rd9, %rd3, %rd8;
  st.global.u8 [%rd9], %r8;
END:
  ret;
}
)";
}

std::string reduce_shared_ptx() {
  // Block-level tree reduction: out[0] = sum(A[0..ntid)).  The warp
  // diverges on `tid < offset` and must reconverge before each bar.
  return R"(
.version 6.0
.target sm_30
.address_size 64

.visible .entry reduce(
  .param .u64 arr_A,
  .param .u64 out
)
{
  .reg .pred %p<4>;
  .reg .u32 %r<16>;
  .reg .u64 %rd<6>;
  .shared .align 4 .b8 sh[256];

  ld.param.u64 %rd1, [arr_A];
  mov.u32 %r1, %tid.x;
  mov.u32 %r2, %ntid.x;

  mul.wide.u32 %rd2, %r1, 4;
  add.u64 %rd3, %rd1, %rd2;
  ld.global.u32 %r3, [%rd3];
  shl.b32 %r4, %r1, 2;
  mov.u32 %r5, sh;
  add.u32 %r6, %r5, %r4;
  st.shared.u32 [%r6], %r3;
  bar.sync 0;

  shr.u32 %r7, %r2, 1;
LOOP:
  setp.eq.u32 %p1, %r7, 0;
  @%p1 bra DONE;
  setp.ge.u32 %p2, %r1, %r7;
  @%p2 bra SKIP;
  add.u32 %r8, %r1, %r7;
  shl.b32 %r9, %r8, 2;
  add.u32 %r10, %r5, %r9;
  ld.shared.u32 %r11, [%r10];
  ld.shared.u32 %r12, [%r6];
  add.u32 %r13, %r11, %r12;
  st.shared.u32 [%r6], %r13;
SKIP:
  bar.sync 0;
  shr.u32 %r7, %r7, 1;
  bra LOOP;
DONE:
  setp.ne.u32 %p3, %r1, 0;
  @%p3 bra END;
  ld.shared.u32 %r14, [%r5];
  ld.param.u64 %rd4, [out];
  st.global.u32 [%rd4], %r14;
END:
  ret;
}
)";
}

std::string atomic_sum_ptx() {
  return R"(
.version 6.0
.target sm_30
.address_size 64

// Grid-wide out[0] += A[i] via atom.add (commits with valid bits set).
.visible .entry atomic_sum(
  .param .u64 arr_A,
  .param .u64 out,
  .param .u32 size
)
{
  .reg .pred %p<2>;
  .reg .u32 %r<8>;
  .reg .u64 %rd<6>;

  ld.param.u64 %rd1, [arr_A];
  ld.param.u64 %rd2, [out];
  ld.param.u32 %r2, [size];

  mov.u32 %r3, %ntid.x;
  mov.u32 %r4, %ctaid.x;
  mov.u32 %r5, %tid.x;
  mad.lo.u32 %r1, %r4, %r3, %r5;

  setp.ge.u32 %p1, %r1, %r2;
  @%p1 bra END;

  mul.wide.u32 %rd3, %r1, 4;
  add.u64 %rd4, %rd1, %rd3;
  ld.global.u32 %r6, [%rd4];
  atom.global.add.u32 %r7, [%rd2], %r6;

END:
  ret;
}
)";
}

std::string histogram_ptx() {
  return R"(
.version 6.0
.target sm_30
.address_size 64

// hist[data[i] & mask] += 1 for i < size.
.visible .entry histogram(
  .param .u64 data,
  .param .u64 hist,
  .param .u32 size,
  .param .u32 mask
)
{
  .reg .pred %p<2>;
  .reg .u32 %r<10>;
  .reg .u64 %rd<7>;

  ld.param.u64 %rd1, [data];
  ld.param.u64 %rd2, [hist];
  ld.param.u32 %r2, [size];
  ld.param.u32 %r3, [mask];

  mov.u32 %r4, %ntid.x;
  mov.u32 %r5, %ctaid.x;
  mov.u32 %r6, %tid.x;
  mad.lo.u32 %r1, %r5, %r4, %r6;

  setp.ge.u32 %p1, %r1, %r2;
  @%p1 bra END;

  cvt.u64.u32 %rd3, %r1;
  add.u64 %rd4, %rd1, %rd3;
  ld.global.u8 %r7, [%rd4];
  and.b32 %r8, %r7, %r3;
  mul.wide.u32 %rd5, %r8, 4;
  add.u64 %rd6, %rd2, %rd5;
  atom.global.add.u32 %r9, [%rd6], 1;

END:
  ret;
}
)";
}

std::string saxpy_ptx() {
  return R"(
.version 6.0
.target sm_30
.address_size 64

// Y[i] = a * X[i] + Y[i] for i < size.
.visible .entry saxpy(
  .param .u64 arr_X,
  .param .u64 arr_Y,
  .param .u32 a,
  .param .u32 size
)
{
  .reg .pred %p<2>;
  .reg .u32 %r<10>;
  .reg .u64 %rd<6>;

  ld.param.u64 %rd1, [arr_X];
  ld.param.u64 %rd2, [arr_Y];
  ld.param.u32 %r2, [a];
  ld.param.u32 %r3, [size];

  mov.u32 %r4, %ntid.x;
  mov.u32 %r5, %ctaid.x;
  mov.u32 %r6, %tid.x;
  mad.lo.u32 %r1, %r5, %r4, %r6;

  setp.ge.u32 %p1, %r1, %r3;
  @%p1 bra END;

  mul.wide.u32 %rd3, %r1, 4;
  add.u64 %rd4, %rd1, %rd3;
  add.u64 %rd5, %rd2, %rd3;
  ld.global.u32 %r7, [%rd4];
  ld.global.u32 %r8, [%rd5];
  mad.lo.u32 %r9, %r2, %r7, %r8;
  st.global.u32 [%rd5], %r9;

END:
  ret;
}
)";
}

std::string copy_v2_ptx() {
  return R"(
.version 6.0
.target sm_30
.address_size 64

// out[2i], out[2i+1] = in[2i], in[2i+1] using vectorized accesses.
.visible .entry copy_v2(
  .param .u64 in,
  .param .u64 out,
  .param .u32 npairs
)
{
  .reg .pred %p<2>;
  .reg .u32 %r<8>;
  .reg .u64 %rd<6>;

  ld.param.u64 %rd1, [in];
  ld.param.u64 %rd2, [out];
  ld.param.u32 %r2, [npairs];

  mov.u32 %r3, %ntid.x;
  mov.u32 %r4, %ctaid.x;
  mov.u32 %r5, %tid.x;
  mad.lo.u32 %r1, %r4, %r3, %r5;

  setp.ge.u32 %p1, %r1, %r2;
  @%p1 bra END;

  mul.wide.u32 %rd3, %r1, 8;
  add.u64 %rd4, %rd1, %rd3;
  add.u64 %rd5, %rd2, %rd3;
  ld.global.v2.u32 {%r6, %r7}, [%rd4];
  st.global.v2.u32 [%rd5], {%r6, %r7};

END:
  ret;
}
)";
}

std::string warp_reduce_shfl_ptx() {
  // Butterfly reduction across one 8-lane warp: after rounds with XOR
  // masks 4, 2, 1 every lane holds the total; lane 0 stores it.
  return R"(
.version 6.0
.target sm_30
.address_size 64

.visible .entry warp_reduce(
  .param .u64 arr_A,
  .param .u64 out
)
{
  .reg .pred %p<2>;
  .reg .u32 %r<5>;
  .reg .u64 %rd<5>;

  ld.param.u64 %rd1, [arr_A];
  mov.u32 %r1, %tid.x;
  mul.wide.u32 %rd2, %r1, 4;
  add.u64 %rd3, %rd1, %rd2;
  ld.global.u32 %r2, [%rd3];

  shfl.bfly.b32 %r3, %r2, 4;
  add.u32 %r2, %r2, %r3;
  shfl.bfly.b32 %r3, %r2, 2;
  add.u32 %r2, %r2, %r3;
  shfl.bfly.b32 %r3, %r2, 1;
  add.u32 %r2, %r2, %r3;

  setp.ne.u32 %p1, %r1, 0;
  @%p1 bra END;
  ld.param.u64 %rd4, [out];
  st.global.u32 [%rd4], %r2;
END:
  ret;
}
)";
}

std::string scan_prefix_ptx() {
  // Hillis–Steele inclusive scan: each round, lane i (i >= offset)
  // reads sh[i-offset] (barrier), adds it into its accumulator and
  // publishes (barrier), with offset doubling each round.
  return R"(
.version 6.0
.target sm_30
.address_size 64

.visible .entry scan_prefix(
  .param .u64 arr_A,
  .param .u64 out
)
{
  .reg .pred %p<4>;
  .reg .u32 %r<10>;
  .reg .u64 %rd<6>;
  .shared .align 4 .b8 sh[256];

  ld.param.u64 %rd1, [arr_A];
  mov.u32 %r1, %tid.x;
  mov.u32 %r6, %ntid.x;
  mul.wide.u32 %rd2, %r1, 4;
  add.u64 %rd3, %rd1, %rd2;
  ld.global.u32 %r2, [%rd3];
  shl.b32 %r7, %r1, 2;
  mov.u32 %r8, sh;
  add.u32 %r7, %r8, %r7;
  st.shared.u32 [%r7], %r2;
  bar.sync 0;

  mov.u32 %r4, 1;
LOOP:
  setp.ge.u32 %p1, %r4, %r6;
  @%p1 bra DONE;

  setp.lt.u32 %p2, %r1, %r4;
  @%p2 bra SKIPR;
  sub.u32 %r9, %r1, %r4;
  shl.b32 %r9, %r9, 2;
  add.u32 %r9, %r8, %r9;
  ld.shared.u32 %r5, [%r9];
SKIPR:
  bar.sync 0;

  setp.lt.u32 %p3, %r1, %r4;
  @%p3 bra SKIPW;
  add.u32 %r2, %r2, %r5;
  st.shared.u32 [%r7], %r2;
SKIPW:
  bar.sync 0;

  shl.b32 %r4, %r4, 1;
  bra LOOP;
DONE:
  ld.param.u64 %rd4, [out];
  add.u64 %rd5, %rd4, %rd2;
  st.global.u32 [%rd5], %r2;
  ret;
}
)";
}

std::string reduce_shared_nobar_ptx() {
  // The reduction with the barriers stripped: every ld.shared in the
  // loop now reads uncommitted bytes (valid bit false).
  std::string src = reduce_shared_ptx();
  std::string needle = "  bar.sync 0;\n";
  for (std::size_t pos = src.find(needle); pos != std::string::npos;
       pos = src.find(needle)) {
    src.erase(pos, needle.size());
  }
  return src;
}

std::string barrier_divergence_ptx() {
  // Thread 0 branches to a barrier the rest of the warp never reaches:
  // the warp can neither execute (leftmost at Bar) nor lift the barrier
  // (warp divergent) — the paper's §III-8 deadlock.
  return R"(
.version 6.0
.target sm_30
.address_size 64

.visible .entry barrier_divergence()
{
  .reg .pred %p<2>;
  .reg .u32 %r<3>;

  mov.u32 %r1, %tid.x;
  setp.eq.u32 %p1, %r1, 0;
  @%p1 bra WAIT;
  bra END;
WAIT:
  bar.sync 0;
END:
  ret;
}
)";
}

std::string race_store_ptx() {
  return R"(
.version 6.0
.target sm_30
.address_size 64

// Every thread stores its own tid to out[0]: a same-instruction store
// conflict whose final value depends on the lane order.
.visible .entry race_store(
  .param .u64 out
)
{
  .reg .u32 %r<3>;
  .reg .u64 %rd<2>;

  ld.param.u64 %rd1, [out];
  mov.u32 %r1, %tid.x;
  st.global.u32 [%rd1], %r1;
  ret;
}
)";
}

ptx::Program divergent_exit_program() {
  const Reg r1{TypeClass::UI, 32, 1};
  const Pred p1{1};
  std::vector<Instr> code = {
      /*0*/ IMov{r1, op_sreg(SregKind::Tid, Dim::X)},
      /*1*/ ISetp{CmpOp::Eq, UI(32), p1, op_reg(r1), op_imm(0)},
      /*2*/ IPBra{p1, false, 4},
      /*3*/ IBop{BinOp::Add, UI(32), r1, op_reg(r1), op_imm(1)},
      /*4*/ IExit{},  // no Sync: a divergent warp gets stuck here
  };
  return Program("divergent_exit", std::move(code));
}

ptx::Program straightline_program(unsigned n_ops) {
  const Reg r1{TypeClass::UI, 32, 1};
  const Reg r2{TypeClass::UI, 32, 2};
  std::vector<Instr> code;
  code.push_back(IMov{r1, op_sreg(SregKind::Tid, Dim::X)});
  code.push_back(IMov{r2, op_imm(1)});
  for (unsigned i = 0; i < n_ops; ++i) {
    code.push_back(IBop{i % 2 ? BinOp::Add : BinOp::Xor, UI(32), r2,
                        op_reg(r2), op_reg(r1)});
  }
  code.push_back(IExit{});
  return Program("straightline", std::move(code));
}

std::string unrolled_ptx(unsigned copies) {
  std::string s =
      ".version 6.0\n.target sm_30\n.address_size 64\n\n"
      ".visible .entry unrolled(\n  .param .u64 in,\n  .param .u64 out\n)\n"
      "{\n  .reg .u32 %r<8>;\n  .reg .u64 %rd<8>;\n\n"
      "  ld.param.u64 %rd1, [in];\n  ld.param.u64 %rd2, [out];\n"
      "  mov.u32 %r1, %tid.x;\n  mov.u32 %r2, %ntid.x;\n";
  for (unsigned j = 0; j < copies; ++j) {
    const std::string k = std::to_string(j);
    s += "  mad.lo.u32 %r3, %r2, " + k + ", %r1;\n" +
         "  mul.wide.u32 %rd3, %r3, 4;\n  add.u64 %rd4, %rd1, %rd3;\n" +
         "  ld.global.u32 %r4, [%rd4];\n  add.u32 %r4, %r4, " + k + ";\n" +
         "  add.u64 %rd5, %rd2, %rd3;\n  st.global.u32 [%rd5], %r4;\n";
  }
  return s + "  ret;\n}\n";
}

}  // namespace cac::programs
