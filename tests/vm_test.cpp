#include <bit>
// Semantics tests for the mini-SPARC execution engine.
#include "vm_harness.hpp"

#include <gtest/gtest.h>

namespace {

using namespace proxima::isa;
using proxima::test::TestMachine;
using proxima::vm::RunResult;
using proxima::vm::VmConfig;
using proxima::vm::VmError;

Program single(FunctionBuilder&& fb, std::vector<DataObject> data = {}) {
  Program program;
  program.functions.push_back(std::move(fb).build());
  program.data = std::move(data);
  program.entry = program.functions.front().name;
  return program;
}

TEST(VmAlu, AddSubLogicShift) {
  FunctionBuilder fb("main");
  fb.li(kO0, 20);
  fb.li(kO1, 7);
  fb.add(kO2, kO0, kO1);  // 27
  fb.sub(kO3, kO0, kO1);  // 13
  fb.op3(Opcode::kAnd, kO4, kO0, kO1); // 4
  fb.op3(Opcode::kOr, kO5, kO0, kO1);  // 23
  fb.op3(Opcode::kXor, kL0, kO0, kO1); // 19
  fb.slli(kL1, kO0, 3);   // 160
  fb.srli(kL2, kO0, 2);   // 5
  fb.halt();
  TestMachine machine(single(std::move(fb)));
  machine.run();
  EXPECT_EQ(machine.cpu.reg(kO2), 27u);
  EXPECT_EQ(machine.cpu.reg(kO3), 13u);
  EXPECT_EQ(machine.cpu.reg(kO4), 4u);
  EXPECT_EQ(machine.cpu.reg(kO5), 23u);
  EXPECT_EQ(machine.cpu.reg(kL0), 19u);
  EXPECT_EQ(machine.cpu.reg(kL1), 160u);
  EXPECT_EQ(machine.cpu.reg(kL2), 5u);
}

TEST(VmAlu, SraSignExtends) {
  FunctionBuilder fb("main");
  fb.li(kO0, -64);
  fb.opi(Opcode::kSrai, kO1, kO0, 3);
  fb.halt();
  TestMachine machine(single(std::move(fb)));
  machine.run();
  EXPECT_EQ(static_cast<std::int32_t>(machine.cpu.reg(kO1)), -8);
}

TEST(VmAlu, MulDivSigned) {
  FunctionBuilder fb("main");
  fb.li(kO0, -6);
  fb.li(kO1, 7);
  fb.mul(kO2, kO0, kO1); // -42
  fb.li(kO3, -45);
  fb.opi(Opcode::kDivi, kO4, kO3, 7); // -6 (truncation toward zero)
  fb.halt();
  TestMachine machine(single(std::move(fb)));
  machine.run();
  EXPECT_EQ(static_cast<std::int32_t>(machine.cpu.reg(kO2)), -42);
  EXPECT_EQ(static_cast<std::int32_t>(machine.cpu.reg(kO4)), -6);
}

TEST(VmAlu, DivisionByZeroFaults) {
  FunctionBuilder fb("main");
  fb.li(kO0, 5);
  fb.li(kO1, 0);
  fb.op3(Opcode::kDiv, kO2, kO0, kO1);
  fb.halt();
  TestMachine machine(single(std::move(fb)));
  EXPECT_THROW(machine.run(), VmError);
}

TEST(VmAlu, G0IsAlwaysZero) {
  FunctionBuilder fb("main");
  fb.li(kG0, 99); // write is discarded
  fb.add(kO0, kG0, kG0);
  fb.halt();
  TestMachine machine(single(std::move(fb)));
  machine.run();
  EXPECT_EQ(machine.cpu.reg(kG0), 0u);
  EXPECT_EQ(machine.cpu.reg(kO0), 0u);
}

TEST(VmAlu, RegisterIndexPastI7Faults) {
  // Only %g0-%i7 are visible.  Index 40 used to land in the ins branch of
  // the window arithmetic and silently write a register of the next
  // window; now it faults.  Decoded instructions cannot name such an index
  // (the register fields are 5 bits wide).
  FunctionBuilder fb("main");
  fb.halt();
  TestMachine machine(single(std::move(fb)));
  EXPECT_THROW(machine.cpu.set_reg(32, 1), VmError);
  EXPECT_THROW(machine.cpu.set_reg(40, 1), VmError);
  EXPECT_THROW((void)machine.cpu.reg(32), VmError);
  EXPECT_THROW((void)machine.cpu.reg(255), VmError);
  for (std::uint8_t index = 0; index < kRegisterCount; ++index) {
    EXPECT_EQ(machine.cpu.reg(index), index == kSp ? proxima::test::kStackTop
                                                   : 0u)
        << "register " << int{index} << " written by a rejected set_reg";
  }
  machine.cpu.set_reg(kI7, 7);
  EXPECT_EQ(machine.cpu.reg(kI7), 7u);
}

TEST(VmAlu, FpRegisterIndexPastF15Faults) {
  FunctionBuilder fb("main");
  fb.halt();
  TestMachine machine(single(std::move(fb)));
  try {
    machine.cpu.set_freg(kFpRegisterCount, 1.0);
    FAIL() << "set_freg accepted f16";
  } catch (const VmError& e) {
    EXPECT_NE(std::string(e.what()).find("fp register index out of range"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)machine.cpu.freg(kFpRegisterCount), VmError);
  machine.cpu.set_freg(15, 2.5);
  EXPECT_EQ(machine.cpu.freg(15), 2.5);
}

TEST(VmAlu, SethiOrloBuilds32BitConstant) {
  FunctionBuilder fb("main");
  fb.li(kO0, static_cast<std::int32_t>(0xdeadbeef));
  fb.halt();
  TestMachine machine(single(std::move(fb)));
  machine.run();
  EXPECT_EQ(machine.cpu.reg(kO0), 0xdeadbeefu);
}

TEST(VmFlags, SubccSetsZeroAndNegative) {
  FunctionBuilder fb("main");
  fb.li(kO0, 5);
  fb.subcci(kO0, 5);
  fb.halt();
  TestMachine machine(single(std::move(fb)));
  machine.run();
  EXPECT_TRUE(machine.cpu.icc().z);
  EXPECT_FALSE(machine.cpu.icc().n);
}

TEST(VmFlags, UnsignedCarry) {
  FunctionBuilder fb("main");
  fb.li(kO0, 1);
  fb.li(kO1, 2);
  fb.op3(Opcode::kSubcc, kG0, kO0, kO1); // 1 - 2: borrow
  fb.halt();
  TestMachine machine(single(std::move(fb)));
  machine.run();
  EXPECT_TRUE(machine.cpu.icc().c);
  EXPECT_TRUE(machine.cpu.icc().n);
}

TEST(VmBranch, SignedTakenNotTaken) {
  // Count down from 3: the loop body runs exactly 3 times.
  FunctionBuilder loop("main");
  loop.li(kO0, 3);
  loop.li(kO1, 0);
  loop.label("top");
  loop.addi(kO1, kO1, 1);
  loop.subi(kO0, kO0, 1);
  loop.subcci(kO0, 0);
  loop.bg("top");
  loop.halt();
  TestMachine machine(single(std::move(loop)));
  machine.run();
  EXPECT_EQ(machine.cpu.reg(kO1), 3u);
  EXPECT_EQ(machine.cpu.reg(kO0), 0u);
}

TEST(VmBranch, UnsignedComparison) {
  // 0xffffffff > 1 unsigned (bgu), but < 0 signed.
  FunctionBuilder fb("main");
  fb.li(kO0, -1); // 0xffffffff
  fb.li(kO1, 1);
  fb.op3(Opcode::kSubcc, kG0, kO0, kO1);
  fb.li(kO2, 0);
  fb.bgu("unsigned_greater");
  fb.ba("done");
  fb.label("unsigned_greater");
  fb.li(kO2, 1);
  fb.label("done");
  fb.halt();
  TestMachine machine(single(std::move(fb)));
  machine.run();
  EXPECT_EQ(machine.cpu.reg(kO2), 1u);
}

TEST(VmBranch, BaAlwaysBnNever) {
  FunctionBuilder fb("main");
  fb.li(kO0, 0);
  fb.branch(Opcode::kBn, "skip"); // never taken
  fb.li(kO0, 1);
  fb.label("skip");
  fb.ba("end");
  fb.li(kO0, 99); // skipped
  fb.label("end");
  fb.halt();
  TestMachine machine(single(std::move(fb)));
  machine.run();
  EXPECT_EQ(machine.cpu.reg(kO0), 1u);
}

TEST(VmMemory, WordLoadStore) {
  FunctionBuilder fb("main");
  fb.load_address(kO0, "buf");
  fb.li(kO1, 0x1234);
  fb.st(kO1, kO0, 0);
  fb.ld(kO2, kO0, 0);
  fb.halt();
  TestMachine machine(
      single(std::move(fb), {DataObject{.name = "buf", .size = 16}}));
  machine.run();
  EXPECT_EQ(machine.cpu.reg(kO2), 0x1234u);
  EXPECT_EQ(machine.word_at("buf"), 0x1234u);
}

TEST(VmMemory, ByteLoadStoreAndZeroExtension) {
  FunctionBuilder fb("main");
  fb.load_address(kO0, "buf");
  fb.li(kO1, 0x1ff); // truncated to 0xff on stb
  fb.stb(kO1, kO0, 1);
  fb.ldb(kO2, kO0, 1);
  fb.halt();
  TestMachine machine(
      single(std::move(fb), {DataObject{.name = "buf", .size = 8}}));
  machine.run();
  EXPECT_EQ(machine.cpu.reg(kO2), 0xffu);
}

TEST(VmMemory, RegisterIndexedAddressing) {
  FunctionBuilder fb("main");
  fb.load_address(kO0, "buf");
  fb.li(kO1, 8);
  fb.li(kO2, 77);
  fb.stx(kO2, kO0, kO1);
  fb.ldx(kO3, kO0, kO1);
  fb.halt();
  TestMachine machine(
      single(std::move(fb), {DataObject{.name = "buf", .size = 16}}));
  machine.run();
  EXPECT_EQ(machine.cpu.reg(kO3), 77u);
}

TEST(VmMemory, DoublewordPair) {
  FunctionBuilder fb("main");
  fb.load_address(kO0, "buf");
  fb.li(kO2, 0x11); // even register
  fb.li(kO3, 0x22); // odd partner
  fb.opi(Opcode::kStd, kO2, kO0, 0);
  fb.opi(Opcode::kLdd, kO4, kO0, 0);
  fb.halt();
  TestMachine machine(
      single(std::move(fb), {DataObject{.name = "buf", .size = 8}}));
  machine.run();
  EXPECT_EQ(machine.cpu.reg(kO4), 0x11u);
  EXPECT_EQ(machine.cpu.reg(kO5), 0x22u);
}

TEST(VmMemory, MisalignedWordLoadFaults) {
  FunctionBuilder fb("main");
  fb.load_address(kO0, "buf");
  fb.ld(kO1, kO0, 2); // misaligned
  fb.halt();
  TestMachine machine(
      single(std::move(fb), {DataObject{.name = "buf", .size = 8}}));
  EXPECT_THROW(machine.run(), VmError);
}

TEST(VmMemory, OddRegisterForLddFaults) {
  FunctionBuilder fb("main");
  fb.load_address(kO0, "buf");
  fb.opi(Opcode::kLdd, kO1, kO0, 0); // odd rd
  fb.halt();
  TestMachine machine(
      single(std::move(fb), {DataObject{.name = "buf", .size = 8}}));
  EXPECT_THROW(machine.run(), VmError);
}

TEST(VmCall, CallLinksReturnAddress) {
  Program program;
  {
    FunctionBuilder fb("main");
    fb.li(kO0, 5);
    fb.call("double_it");
    fb.mov(kO1, kO0);
    fb.halt();
    program.functions.push_back(fb.build());
  }
  {
    FunctionBuilder fb("double_it"); // leaf
    fb.add(kO0, kO0, kO0);
    fb.ret_leaf();
    program.functions.push_back(fb.build());
  }
  program.entry = "main";
  TestMachine machine(program);
  machine.run();
  EXPECT_EQ(machine.cpu.reg(kO1), 10u);
}

TEST(VmCall, JmplIndirectCall) {
  Program program;
  {
    FunctionBuilder fb("main");
    fb.load_address(kG1, "target");
    fb.opi(Opcode::kJmpl, kO7, kG1, 0); // indirect call
    fb.halt();
    program.functions.push_back(fb.build());
  }
  {
    FunctionBuilder fb("target");
    fb.li(kO0, 123);
    fb.ret_leaf();
    program.functions.push_back(fb.build());
  }
  program.entry = "main";
  TestMachine machine(program);
  machine.run();
  EXPECT_EQ(machine.cpu.reg(kO0), 123u);
}

TEST(VmFp, ArithmeticAndConversion) {
  FunctionBuilder fb("main");
  fb.li(kO0, 3);
  fb.fitod(0, kO0); // f0 = 3.0
  fb.li(kO1, 4);
  fb.fitod(1, kO1);          // f1 = 4.0
  fb.fmuld(2, 0, 0);         // f2 = 9
  fb.fmuld(3, 1, 1);         // f3 = 16
  fb.faddd(4, 2, 3);         // f4 = 25
  fb.op3(Opcode::kFsqrtd, 5, 4, 0); // f5 = 5
  fb.fdtoi(kO2, 5);          // o2 = 5
  fb.halt();
  TestMachine machine(single(std::move(fb)));
  machine.run();
  EXPECT_DOUBLE_EQ(machine.cpu.freg(4), 25.0);
  EXPECT_DOUBLE_EQ(machine.cpu.freg(5), 5.0);
  EXPECT_EQ(machine.cpu.reg(kO2), 5u);
}

TEST(VmFp, CompareAndBranch) {
  FunctionBuilder fb("main");
  fb.li(kO0, 2);
  fb.fitod(0, kO0);
  fb.li(kO1, 3);
  fb.fitod(1, kO1);
  fb.fcmpd(0, 1);
  fb.li(kO2, 0);
  fb.branch(Opcode::kFbl, "less");
  fb.ba("done");
  fb.label("less");
  fb.li(kO2, 1);
  fb.label("done");
  fb.halt();
  TestMachine machine(single(std::move(fb)));
  machine.run();
  EXPECT_EQ(machine.cpu.reg(kO2), 1u);
}

TEST(VmFp, LoadStoreDouble) {
  FunctionBuilder fb("main");
  fb.load_address(kO0, "val");
  fb.ldf(0, kO0, 0);
  fb.faddd(1, 0, 0);
  fb.stf(1, kO0, 8);
  fb.halt();
  std::vector<std::uint8_t> init(8);
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(2.5);
  for (int i = 0; i < 8; ++i) {
    init[i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  }
  TestMachine machine(single(
      std::move(fb),
      {DataObject{.name = "val", .size = 16, .align = 8, .init = init}}));
  machine.run();
  EXPECT_DOUBLE_EQ(machine.f64_at("val", 8), 5.0);
}

TEST(VmFp, ValueDependentJitter) {
  // Same instruction sequence, different operand values: the FPU charges
  // extra cycles for denormals (paper: jitter of up to 3 cycles).
  auto run_with = [](double value) {
    FunctionBuilder fb("main");
    fb.load_address(kO0, "val");
    fb.ldf(0, kO0, 0);
    for (int i = 0; i < 50; ++i) {
      fb.faddd(1, 0, 1);
    }
    fb.halt();
    std::vector<std::uint8_t> init(8);
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
      init[i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
    }
    Program program;
    program.functions.push_back(std::move(fb).build());
    program.data.push_back(
        DataObject{.name = "val", .size = 8, .align = 8, .init = init});
    program.entry = "main";
    TestMachine machine(program);
    machine.run();
    return machine.cpu.cycles();
  };
  const std::uint64_t normal = run_with(1.25);
  const std::uint64_t denormal = run_with(4.9e-324);
  EXPECT_GT(denormal, normal);
  EXPECT_LE(denormal, normal + 50 * proxima::vm::kFpJitterMax);
}

TEST(VmPlatform, RdtickMonotonic) {
  FunctionBuilder fb("main");
  fb.op3(Opcode::kRdtick, kO0, 0, 0);
  fb.nop();
  fb.nop();
  fb.op3(Opcode::kRdtick, kO1, 0, 0);
  fb.halt();
  TestMachine machine(single(std::move(fb)));
  machine.run();
  EXPECT_GT(machine.cpu.reg(kO1), machine.cpu.reg(kO0));
}

TEST(VmPlatform, IpointEmitsTimestamp) {
  FunctionBuilder fb("main");
  fb.ipoint(7);
  fb.nop();
  fb.ipoint(8);
  fb.halt();
  TestMachine machine(single(std::move(fb)));
  std::vector<std::pair<std::uint32_t, std::uint64_t>> events;
  machine.cpu.set_ipoint_sink(
      [&events](std::uint32_t id, std::uint64_t cycles) {
        events.emplace_back(id, cycles);
      });
  machine.run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].first, 7u);
  EXPECT_EQ(events[1].first, 8u);
  EXPECT_GT(events[1].second, events[0].second);
}

TEST(VmPlatform, HaltStopsAndReportsCounts) {
  FunctionBuilder fb("main");
  fb.nop();
  fb.nop();
  fb.halt();
  TestMachine machine(single(std::move(fb)));
  const RunResult result = machine.run();
  EXPECT_EQ(result.stop, RunResult::Stop::kHalt);
  EXPECT_EQ(result.instructions, 3u);
  EXPECT_TRUE(machine.cpu.halted());
}

TEST(VmPlatform, InstructionLimitStopsRunaway) {
  FunctionBuilder fb("main");
  fb.label("spin");
  fb.ba("spin");
  Program program = single(std::move(fb));
  proxima::vm::VmConfig config;
  config.max_instructions = 1000;
  TestMachine machine(program, {}, config);
  const RunResult result = machine.run();
  EXPECT_EQ(result.stop, RunResult::Stop::kInstructionLimit);
  EXPECT_EQ(result.instructions, 1000u);
}

TEST(VmPlatform, CountersTrackInstructionsAndFpu) {
  FunctionBuilder fb("main");
  fb.li(kO0, 1);
  fb.fitod(0, kO0);
  fb.faddd(1, 0, 0);
  fb.fmuld(2, 1, 1);
  fb.halt();
  TestMachine machine(single(std::move(fb)));
  machine.run();
  EXPECT_EQ(machine.hierarchy.counters().instructions,
            machine.cpu.instructions());
  EXPECT_EQ(machine.hierarchy.counters().fpu_ops, 3u); // fitod+faddd+fmuld
}

TEST(VmPlatform, FlushInvalidatesLine) {
  FunctionBuilder fb("main");
  fb.load_address(kO0, "buf");
  fb.ld(kO1, kO0, 0);  // fill DL1
  fb.flush(kO0, 0);    // invalidate the line everywhere
  fb.halt();
  TestMachine machine(
      single(std::move(fb), {DataObject{.name = "buf", .size = 8}}));
  machine.run();
  EXPECT_FALSE(
      machine.hierarchy.dl1().contains(machine.image.symbol("buf").addr));
}

} // namespace
