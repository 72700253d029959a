// Unit tests for the DSR compiler pass (Section III.B).
#include "core/dsr_pass.hpp"
#include "isa/builder.hpp"
#include "isa/linker.hpp"

#include <gtest/gtest.h>

namespace {

using namespace proxima::isa;
using proxima::dsr::apply_pass;
using proxima::dsr::DsrError;
using proxima::dsr::is_stub_name;
using proxima::dsr::kFunctabSymbol;
using proxima::dsr::kStackoffSymbol;
using proxima::dsr::PassOptions;
using proxima::dsr::PassReport;

Program call_and_frame_program() {
  Program program;
  {
    FunctionBuilder fb("main");
    fb.prologue(96);
    fb.call("helper");
    fb.epilogue();
    program.functions.push_back(fb.build());
  }
  {
    FunctionBuilder fb("helper");
    fb.li(kO0, 1);
    fb.ret_leaf();
    program.functions.push_back(fb.build());
  }
  program.entry = "main";
  return program;
}

TEST(DsrPass, RewritesCallToTableIndirection) {
  Program program = call_and_frame_program();
  const PassReport report = apply_pass(program);
  EXPECT_EQ(report.calls_rewritten, 1u);

  const Function& main_fn = *program.find_function("main");
  // Prologue (6) + call sequence (4) + restore + jmpl = 12 instructions.
  ASSERT_EQ(main_fn.code.size(), 12u);
  // The call sequence sits right after the rewritten prologue.
  EXPECT_EQ(main_fn.code[6].op, Opcode::kSethi);
  EXPECT_EQ(main_fn.code[7].op, Opcode::kOrlo);
  EXPECT_EQ(main_fn.code[8].op, Opcode::kLd);
  EXPECT_EQ(main_fn.code[9].op, Opcode::kJmpl);
  EXPECT_EQ(main_fn.code[9].rd, kO7); // linked indirect call

  // No kCall fixups survive; the sequence references the relocation table
  // slot of helper (id 1 -> addend 4).
  for (const Fixup& fixup : main_fn.fixups) {
    EXPECT_NE(fixup.kind, FixupKind::kCall);
  }
  bool found_table_ref = false;
  for (const Fixup& fixup : main_fn.fixups) {
    if (fixup.symbol == kFunctabSymbol) {
      EXPECT_EQ(fixup.addend, 4);
      found_table_ref = true;
    }
  }
  EXPECT_TRUE(found_table_ref);
}

TEST(DsrPass, RewritesPrologueToRandomisedSave) {
  Program program = call_and_frame_program();
  const PassReport report = apply_pass(program);
  EXPECT_EQ(report.prologues_rewritten, 1u);

  const Function& main_fn = *program.find_function("main");
  EXPECT_EQ(main_fn.code[0].op, Opcode::kSethi);
  EXPECT_EQ(main_fn.code[1].op, Opcode::kOrlo);
  EXPECT_EQ(main_fn.code[2].op, Opcode::kLd);
  EXPECT_EQ(main_fn.code[3].op, Opcode::kSub);  // g7 = -offset
  EXPECT_EQ(main_fn.code[4].op, Opcode::kSubi); // g7 -= frame
  EXPECT_EQ(main_fn.code[4].imm, 96);
  EXPECT_EQ(main_fn.code[5].op, Opcode::kSavex); // atomic sp update
  EXPECT_EQ(main_fn.code[5].rd, kSp);
  EXPECT_EQ(main_fn.code[5].rs1, kSp);
  EXPECT_EQ(main_fn.code[5].rs2, kG7);

  // Offset table reference for main (id 0 -> addend 0).
  bool found = false;
  for (const Fixup& fixup : main_fn.fixups) {
    if (fixup.symbol == kStackoffSymbol) {
      EXPECT_EQ(fixup.addend, 0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DsrPass, EmitsMetadataTables) {
  Program program = call_and_frame_program();
  apply_pass(program);
  const DataObject* functab = program.find_data(kFunctabSymbol);
  const DataObject* stackoff = program.find_data(kStackoffSymbol);
  ASSERT_NE(functab, nullptr);
  ASSERT_NE(stackoff, nullptr);
  EXPECT_EQ(functab->size, 8u); // 2 functions x 4 bytes
  EXPECT_EQ(stackoff->size, 8u);
}

TEST(DsrPass, BranchesOverEditsStayCorrect) {
  // A branch spanning a rewritten call must still reach its label.
  Program program;
  {
    FunctionBuilder fb("main");
    fb.li(kO0, 0);
    fb.subcci(kO0, 1);
    fb.bl("skip");      // taken: skips the call
    fb.call("helper");  // will grow to 4 instructions
    fb.label("skip");
    fb.li(kO1, 5);
    fb.halt();
    program.functions.push_back(fb.build());
  }
  {
    FunctionBuilder fb("helper");
    fb.ret_leaf();
    program.functions.push_back(fb.build());
  }
  program.entry = "main";
  apply_pass(program);

  const Function& main_fn = *program.find_function("main");
  // The label "skip" moved from index 4 to 4 + 3 (call grew by 3).
  EXPECT_EQ(main_fn.labels.at("skip"), 7u);
  // Linking resolves the branch to the remapped label.
  const LinkedImage image = link(program);
  EXPECT_GT(image.code_bytes(), 0u);
}

TEST(DsrPass, MultipleCallsAllRewritten) {
  Program program;
  {
    FunctionBuilder fb("main");
    fb.call("a");
    fb.call("b");
    fb.call("a");
    fb.halt();
    program.functions.push_back(fb.build());
  }
  for (const char* name : {"a", "b"}) {
    FunctionBuilder fb(name);
    fb.ret_leaf();
    program.functions.push_back(fb.build());
  }
  program.entry = "main";
  const PassReport report = apply_pass(program);
  EXPECT_EQ(report.calls_rewritten, 3u);
  EXPECT_EQ(program.find_function("main")->code.size(), 3u * 4u + 1u);
}

TEST(DsrPass, ReportsOverheadRatio) {
  Program program = call_and_frame_program();
  const PassReport report = apply_pass(program);
  EXPECT_EQ(report.instructions_before, 6u);  // 4 (main) + 2 (helper)
  EXPECT_EQ(report.instructions_after, 14u);  // 12 + 2
  EXPECT_NEAR(report.overhead_ratio(), 14.0 / 6.0 - 1.0, 1e-12);
}

TEST(DsrPass, DoubleApplicationRejected) {
  Program program = call_and_frame_program();
  apply_pass(program);
  EXPECT_THROW(apply_pass(program), DsrError);
}

TEST(DsrPass, LazyStubsEmitted) {
  Program program = call_and_frame_program();
  PassOptions options;
  options.lazy_stubs = true;
  const PassReport report = apply_pass(program, options);
  EXPECT_EQ(report.stubs_emitted, 2u);
  ASSERT_EQ(program.functions.size(), 4u);
  const Function* stub = program.find_function("__dsr_stub_helper");
  ASSERT_NE(stub, nullptr);
  EXPECT_TRUE(is_stub_name(stub->name));
  EXPECT_EQ(stub->code.front().op, Opcode::kTrapReloc);
  EXPECT_EQ(stub->code.front().imm, 1); // helper's id
  EXPECT_EQ(stub->code.back().op, Opcode::kJmpl);
  EXPECT_EQ(stub->code.back().rd, kG0); // tail jump preserves %o7
}

TEST(DsrPass, StubNameCollisionRejected) {
  Program program;
  FunctionBuilder fb("__dsr_stub_x");
  fb.halt();
  program.functions.push_back(fb.build());
  program.entry = "__dsr_stub_x";
  EXPECT_THROW(apply_pass(program), DsrError);
}

TEST(DsrPass, TransformedProgramStillLinks) {
  Program program = call_and_frame_program();
  apply_pass(program);
  const LinkedImage image = link(program);
  EXPECT_TRUE(image.has_symbol(kFunctabSymbol));
  EXPECT_TRUE(image.has_symbol(kStackoffSymbol));
  // Metadata tables are 64-byte aligned (own cache lines).
  EXPECT_EQ(image.symbol(kFunctabSymbol).addr % 64, 0u);
}

} // namespace
