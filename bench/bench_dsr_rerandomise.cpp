// Microbench: the DSR re-randomisation path in isolation.
//
// Adaptive campaigns at high worker counts are dominated not by guest
// execution but by the per-run partition reboot: relocating every managed
// function into fresh pool chunks, rewriting the metadata tables, running
// the SPARC invalidation routine over the touched ranges, and — on the
// decode-cached cores — invalidating the predecoded dispatch entries for
// every rewritten word.  This bench isolates exactly that path (no
// activations are executed) and compares the batched relocation fast path
// (host-word block moves, range invalidations) against the original
// per-word store loop on every core:
//
//   * per-rerandomise wall time for the fast core (the default) and the
//     reference core (no decode cache) — the fast-vs-reference delta is
//     the decode-cache coherence cost, the batched-vs-per-word delta is
//     what the fast path buys;
//   * the guest-side work metered by DsrRuntime::Stats (relocations, bytes
//     copied, cache lines invalidated) per reboot, which is layout-
//     independent, identical across relocation paths by construction, and
//     so also serves as a correctness gate.
//
//   PROXIMA_RUNS  re-randomisations per leg (default 2000)
#include "bench_util.hpp"

#include "casestudy/control_task.hpp"
#include "casestudy/measured_target.hpp" // kControlStackTop
#include "core/dsr_pass.hpp"
#include "core/dsr_runtime.hpp"
#include "exec/seed.hpp"
#include "mem/hierarchy.hpp"
#include "trace/trace.hpp"

#include <chrono>
#include <cstdio>
#include <set>

using namespace proxima;

namespace {

struct Leg {
  const char* label = "";
  double seconds = 0.0;
  std::uint64_t reseeds = 0;
  dsr::DsrRuntime::Stats stats;   // accumulated over all reboots
  std::size_t distinct_entries = 0;

  double micros_per_reseed() const {
    return reseeds == 0 ? 0.0 : seconds * 1e6 / static_cast<double>(reseeds);
  }
};

/// The guest-visible relocation work: identical across cores AND across
/// the batched/per-word relocation paths (the batched path is a host-side
/// optimisation only).
bool same_guest_work(const dsr::DsrRuntime::Stats& a,
                     const dsr::DsrRuntime::Stats& b) {
  return a.reseeds == b.reseeds && a.relocations == b.relocations &&
         a.bytes_copied == b.bytes_copied &&
         a.lines_invalidated == b.lines_invalidated &&
         a.ondemand_reseeds == b.ondemand_reseeds;
}

/// Build the control-task DSR platform exactly like a campaign runner and
/// time `reseeds` partition reboots without executing any activation.
Leg run_leg(vm::VmCore core, bool batched, const char* label,
            std::uint64_t reseeds) {
  const casestudy::CampaignConfig config = [batched] {
    casestudy::CampaignConfig c;
    c.randomisation = casestudy::Randomisation::kDsr;
    c.dsr_options.batched_relocation = batched;
    return c;
  }();

  isa::Program program = casestudy::build_control_program(config.control);
  trace::instrument_function(program, "control_step");
  dsr::apply_pass(program, config.pass_options);
  const isa::LinkedImage image =
      isa::link(program, casestudy::control_layout(config.control,
                                                   config.layout,
                                                   casestudy::kControlStackTop));
  mem::GuestMemory memory;
  mem::MemoryHierarchy hierarchy(mem::leon3_hierarchy_config());
  vm::VmConfig vm_config;
  vm_config.core = core;
  vm::Vm cpu(memory, hierarchy, vm_config);
  image.load_into(memory);
  // Warm decode cache, like the runner: this is what makes every
  // subsequent relocation pay the predecoded-line invalidation cost.
  cpu.predecode(image.code_begin(), image.code_end() - image.code_begin());

  rng::Mwc layout_rng(1);
  dsr::DsrRuntime runtime(memory, hierarchy, image, layout_rng,
                          config.dsr_options);
  runtime.attach(cpu);

  Leg leg;
  leg.label = label;
  leg.reseeds = reseeds;
  std::set<std::uint32_t> entries;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t run = 0; run < reseeds; ++run) {
    layout_rng.seed(exec::derive_run_seed(
        config.layout_seed, exec::SeedStream::kLayout, run));
    runtime.rerandomise();
    entries.insert(runtime.entry_address());
  }
  leg.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  leg.stats = runtime.stats();
  leg.distinct_entries = entries.size();
  std::printf("%-28s %8.2f us/reseed   %6.1f MB/s copied   "
              "(%llu relocations, %llu lines invalidated)\n",
              label, leg.micros_per_reseed(),
              leg.seconds <= 0.0
                  ? 0.0
                  : static_cast<double>(leg.stats.bytes_copied) /
                        leg.seconds / 1e6,
              static_cast<unsigned long long>(leg.stats.relocations),
              static_cast<unsigned long long>(leg.stats.lines_invalidated));
  return leg;
}

} // namespace

int main() {
  const std::uint64_t reseeds = bench::campaign_runs(2000);
  bench::print_header(
      "DSR re-randomisation path (relocation + decode-cache invalidation), " +
      std::to_string(reseeds) + " reboots per leg");

  std::printf("batched relocation (default):\n");
  const Leg fast = run_leg(vm::VmCore::kFast, true,
                           "fast core (decode cache)", reseeds);
  const Leg reference =
      run_leg(vm::VmCore::kReference, true, "reference core", reseeds);

  std::printf("\nper-word relocation (--no-batch path):\n");
  const Leg fast_pw = run_leg(vm::VmCore::kFast, false,
                              "fast core (decode cache)", reseeds);
  const Leg reference_pw =
      run_leg(vm::VmCore::kReference, false, "reference core", reseeds);

  std::printf("\ndecode-cache coherence cost: %+.2f us/reseed (%+.1f%%)\n",
              fast.micros_per_reseed() - reference.micros_per_reseed(),
              reference.micros_per_reseed() <= 0.0
                  ? 0.0
                  : 100.0 * (fast.micros_per_reseed() /
                                 reference.micros_per_reseed() -
                             1.0));
  const auto speedup = [](const Leg& batched, const Leg& per_word) {
    return batched.micros_per_reseed() <= 0.0
               ? 0.0
               : per_word.micros_per_reseed() / batched.micros_per_reseed();
  };
  std::printf("batched speedup: fast %.2fx, reference %.2fx\n",
              speedup(fast, fast_pw), speedup(reference, reference_pw));

  // Gates: the guest-side work is a pure function of the layout stream, so
  // every core and both relocation paths must meter identical work; the
  // batched path must not be slower than the loop it replaces; and the
  // layouts must actually vary (a stuck entry address means the reseed is
  // a no-op).
  const bool same_work = same_guest_work(fast.stats, reference.stats);
  const bool same_paths = same_guest_work(fast.stats, fast_pw.stats) &&
                          same_guest_work(reference.stats, reference_pw.stats);
  const bool batched_wins =
      fast.micros_per_reseed() <= fast_pw.micros_per_reseed();
  const bool layouts_vary = fast.distinct_entries > reseeds / 4;
  std::printf("shape check: identical guest-side work across cores: %s; "
              "across relocation paths: %s; batched <= per-word on "
              "fast: %s; layouts vary (%zu distinct entries): %s\n",
              same_work ? "yes" : "NO", same_paths ? "yes" : "NO",
              batched_wins ? "yes" : "NO", fast.distinct_entries,
              layouts_vary ? "yes" : "NO");
  return same_work && same_paths && batched_wins && layouts_vary ? 0 : 1;
}
