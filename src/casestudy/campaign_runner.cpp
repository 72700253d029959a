#include "campaign_runner.hpp"

#include "core/static_rand.hpp"
#include "exec/seed.hpp"
#include "rng/lfsr.hpp"
#include "rng/mwc.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

namespace proxima::casestudy {

namespace {

std::unique_ptr<rng::RandomSource> make_prng(PrngKind kind,
                                             std::uint64_t seed) {
  if (kind == PrngKind::kLfsr) {
    return std::make_unique<rng::Lfsr>(seed);
  }
  return std::make_unique<rng::Mwc>(seed);
}

/// Build the measured program (target-specific generation + UoA
/// instrumentation) and, for DSR, apply the transformation pass.
isa::Program make_program(const Task& target,
                          const CampaignConfig& config,
                          dsr::PassReport& pass_report) {
  isa::Program program = target.build_program();
  if (uses_dsr(config.randomisation)) {
    pass_report = dsr::apply_pass(program, config.pass_options);
  }
  return program;
}

/// kDsrOnDemand's bare-platform trigger is the taint sink-store detector,
/// so that arm runs with taint tracking on even when the campaign did not
/// ask for it.  Under the hypervisor the trigger is the partition switch
/// instead, and taint stays as configured.
bool taint_enabled(const CampaignConfig& config) {
  return config.taint ||
         (config.randomisation == Randomisation::kDsrOnDemand &&
          !config.hypervisor);
}

isa::LinkOptions base_layout_options(const Task& target,
                                     const CampaignConfig& config) {
  isa::LinkOptions options = target.layout_options();
  options.function_order = config.function_order;
  return options;
}

vm::VmConfig vm_config_for(const CampaignConfig& config) {
  vm::VmConfig vm_config;
  vm_config.core = config.vm_core;
  vm_config.taint = taint_enabled(config);
  return vm_config;
}

} // namespace

CampaignRunner::CampaignRunner(const CampaignConfig& config)
    : config_(config), target_(make_measured_target(config_)),
      input_rng_(config_.input_seed),
      program_(make_program(*target_, config_, pass_report_)),
      layout_rng_(make_prng(config_.prng, config_.layout_seed)),
      image_(isa::link(program_, base_layout_options(*target_, config_))),
      code_bytes_(image_.code_bytes()),
      hierarchy_(config_.randomisation == Randomisation::kHardware
                     ? mem::leon3_hw_randomised_config()
                     : mem::leon3_hierarchy_config()),
      cpu_(memory_, hierarchy_, vm_config_for(config_)) {
  hierarchy_.set_strict_coherence(true); // any stale fetch is a campaign bug
  trace_buffer_.attach(cpu_);
  image_.load_into(memory_);
  // One-time predecode pass over the loaded image (fast core only): the
  // decode cache stays coherent through DSR relocation and re-links (a
  // write into a decoded page resets its slots): purely a warm start.
  cpu_.predecode(image_.code_begin(), image_.code_end() - image_.code_begin());
  if (uses_dsr(config_.randomisation)) {
    runtime_ = std::make_unique<dsr::DsrRuntime>(
        memory_, hierarchy_, image_, *layout_rng_, config_.dsr_options);
    runtime_->attach(cpu_);
  }
  if (config_.randomisation == Randomisation::kDsrOnDemand &&
      !config_.hypervisor) {
    // Bare-platform on-demand trigger: a detected taint sink store (the
    // PR 8 analyzer's leak event) reseeds the layout mid-run.  The copy
    // charge mirrors the lazy-relocation cost model and lands on the
    // running activation's cycle count.
    cpu_.set_sink_store_sink(
        [this](std::uint32_t) { return runtime_->rerandomise_on_demand(); });
  }
  configure_taint_ranges();
  if (config_.hypervisor) {
    hv_build(); // hv_runner.cpp: guest images + Hypervisor
  }
}

void CampaignRunner::fault(const std::string& what) const {
  std::ostringstream oss;
  oss << "campaign run "
      << (current_run_ ? static_cast<long long>(*current_run_) : -1) << ": "
      << what;
  throw std::runtime_error(oss.str());
}

void CampaignRunner::apply_randomisation(std::uint64_t layout_seed) {
  switch (config_.randomisation) {
  case Randomisation::kNone:
    break;
  case Randomisation::kDsr:
  case Randomisation::kDsrOnDemand:
    // Partition reboot: a fresh layout drawn from this run's derived seed
    // (the first call doubles as the runtime's initialisation).  On-demand
    // reseeds later in the run continue this stream, so the whole run stays
    // a pure function of the derived seed.
    layout_rng_->seed(layout_seed);
    runtime_->rerandomise();
    break;
  case Randomisation::kStatic: {
    // A freshly linked binary with a random layout every run.
    layout_rng_->seed(layout_seed);
    const isa::LinkOptions random_options =
        dsr::random_layout(program_, *layout_rng_);
    image_ = isa::link(program_, random_options);
    memory_.clear();
    image_.load_into(memory_);
    hierarchy_.flush_all(); // a re-flashed board starts cold
    configure_taint_ranges(); // the re-link moved every data object
    break;
  }
  case Randomisation::kHardware:
    hierarchy_.reseed(layout_seed);
    hierarchy_.flush_all(); // a new placement hash invalidates old sets
    break;
  }
}

void CampaignRunner::advance_inputs(std::uint64_t activation) {
  // Every draw comes from its own activation's run-seed stream.
  const auto draw = [this](std::uint64_t index) {
    input_rng_.seed(exec::derive_run_seed(config_.input_seed,
                                          exec::SeedStream::kInput, index));
    target_->draw(input_rng_);
  };
  if (config_.fixed_inputs) {
    // Analysis protocol: activation 0's inputs, drawn once and replayed
    // every run, so the measured variability is the platform's.
    if (next_input_ == 0) {
      draw(next_input_++);
    }
    return;
  }
  if (target_->stateful() && config_.randomisation != Randomisation::kStatic) {
    // Streamed persistent state: replay every draw up to this activation,
    // skipped indices included, so the host state (telemetry rotation,
    // protocol block) is exactly what the sequential protocol would hold.
    while (next_input_ <= activation) {
      draw(next_input_++);
    }
    return;
  }
  // A stateless task, or a re-flashed board: the state restarts from the
  // image's load-time contents every run.
  target_->restart();
  draw(activation);
}

void CampaignRunner::stage_inputs(std::uint64_t activation) {
  // After a skip in the activation sequence (shard boundary) this
  // activation's changes no longer cover the guest/host difference, so the
  // full persistent state is re-staged.  A kStatic re-flash restarts guest
  // memory from the image contents, and advance_inputs restarted the host
  // state likewise, so the activation's changes suffice.
  const bool consecutive =
      staged_activation_ && activation == *staged_activation_ + 1;
  const bool full_resync =
      config_.randomisation != Randomisation::kStatic && !consecutive;
  target_->stage(memory_, hierarchy_, image_, full_resync);
  staged_activation_ = activation;
}

std::uint32_t CampaignRunner::measured_entry() const {
  return uses_dsr(config_.randomisation) ? runtime_->entry_address()
                                         : image_.entry_addr();
}

void CampaignRunner::configure_taint_ranges() {
  if (!taint_enabled(config_)) {
    return;
  }
  cpu_.taint_clear_ranges();
  // Sinks: the measured target's externally observable output objects.
  for (const std::string& name : target_->observable_symbols()) {
    const isa::Symbol& symbol = image_.symbol(name);
    cpu_.taint_add_sink_range(symbol.addr, symbol.size);
  }
  // Sources: the DSR tables hold the randomised layout verbatim — function
  // addresses in the functab, per-function stack offsets alongside it.
  // (kCall/kJmpl return addresses are sources unconditionally, handled in
  // the transfer function itself.)
  if (uses_dsr(config_.randomisation)) {
    for (const char* table : {dsr::kFunctabSymbol, dsr::kStackoffSymbol}) {
      if (image_.has_symbol(table)) {
        const isa::Symbol& symbol = image_.symbol(table);
        cpu_.taint_add_source_range(symbol.addr, symbol.size);
      }
    }
  }
}

void CampaignRunner::verify_measured() {
  if (!target_->verify(memory_, image_)) {
    fault(std::string(measured_target_name(config_.measured)) +
          " outputs diverge from the golden model");
  }
  ++verified_runs_;
}

void CampaignRunner::setup(std::uint64_t run_index) {
  if (run_index >= config_.runs) {
    throw std::invalid_argument("CampaignRunner::setup: run index " +
                                std::to_string(run_index) +
                                " out of range (runs = " +
                                std::to_string(config_.runs) + ")");
  }
  if (current_run_ && run_index <= *current_run_) {
    throw std::invalid_argument(
        "CampaignRunner::setup: run indices must be strictly ascending");
  }
  current_run_ = run_index;
  executed_ = false;
  if (config_.fault_at_run && run_index == *config_.fault_at_run) {
    fault("injected platform fault (CampaignConfig::fault_at_run)");
  }

  obs_begin_run();

  if (hv_) {
    hv_setup(run_index);
    return;
  }
  apply_randomisation(exec::derive_run_seed(
      config_.layout_seed, exec::SeedStream::kLayout, run_index));
  advance_inputs(run_index);
  stage_inputs(run_index);
}

void CampaignRunner::execute() {
  if (!current_run_ || executed_) {
    throw std::logic_error("CampaignRunner::execute: no run staged");
  }
  // Fresh taint shadows: per-run leak metrics are a pure function of the
  // run's own activation(s), independent of how runs are sharded.
  cpu_.taint_new_run();
  if (hv_) {
    hv_execute();
    executed_ = true;
    return;
  }
  const std::uint32_t entry = measured_entry();

  // Well-defined initial state, independent across runs *by construction*
  // (the paper's own requirement): wipe every level, run one unmeasured
  // warm-up activation under THIS run's layout and inputs, then apply the
  // PikeOS partition-start L1 flush.  The measured activation thus starts
  // from a warm L2 whose contents are a function of the current run only.
  hierarchy_.flush_all();
  cpu_.reset(entry, kControlStackTop);
  if (cpu_.run().stop != vm::RunResult::Stop::kHalt) {
    fault("warm-up activation did not halt");
  }
  hierarchy_.flush_l1s();
  hierarchy_.counters().reset();
  obs_rebase_mix(); // warm-up instructions stay out of vm.mix.*
  trace_buffer_.clear();

  // The measured activation.  A bare kDsrOnDemand sink store fires the
  // reseed trigger during the warm-up too, so that arm re-queries the
  // entry point under the layout now in force.  Every other arm reuses the
  // reboot-time entry — under the lazy scheme the warm-up's first-call
  // trap moves entry_address(), and the measured activation must still
  // enter through the stub exactly as it always has.
  cpu_.reset(config_.randomisation == Randomisation::kDsrOnDemand
                 ? measured_entry()
                 : entry,
             kControlStackTop);
  if (cpu_.run().stop != vm::RunResult::Stop::kHalt) {
    fault("activation did not halt");
  }
  executed_ = true;
}

RunSample CampaignRunner::collect() {
  if (!current_run_ || !executed_) {
    throw std::logic_error("CampaignRunner::collect: no executed run");
  }
  if (hv_) {
    RunSample sample = hv_collect();
    obs_publish_run();
    return sample;
  }
  // Extract the UoA time + counters (one invocation: the warm-up's trace
  // was cleared).
  const std::vector<double> times =
      trace::extract_execution_times(trace_buffer_);
  if (times.size() != 1) {
    fault("expected exactly one UoA invocation");
  }
  RunSample sample;
  sample.uoa_cycles = times.front();
  sample.corrupt_input = target_->corrupt_input();
  sample.counters = hierarchy_.counters();

  // Functional verification against the host golden model.
  verify_measured();
  obs_publish_run();
  return sample;
}

void CampaignRunner::obs_begin_run() {
  if (!config_.collect_metrics) {
    return;
  }
  // The mix counts only the measured window: the VM's hook stays null
  // until obs_rebase_mix (and, with metrics off, for good — the fast
  // dispatch loop's mix branch is then never taken).
  cpu_.set_mix_counters(nullptr);
  if (runtime_) {
    dsr_base_ = runtime_->stats();
  }
  decode_base_ = cpu_.decode_stats();
  taint_base_ = cpu_.taint_stats();
}

void CampaignRunner::obs_rebase_mix() {
  if (!config_.collect_metrics) {
    return;
  }
  std::fill_n(run_metrics_.values.begin(), obs::MetricsShard::kMixSlots, 0);
  cpu_.set_mix_counters(run_metrics_.values.data());
  if (config_.taint) {
    // Like vm.mix.*: the warm-up activation's taint events stay out of the
    // published leak.* window (shadow *state* persists — the warm-up runs
    // under this run's layout, so the final sink walk is unaffected).
    taint_base_ = cpu_.taint_stats();
  }
}

void CampaignRunner::obs_publish_run() {
  if (hv_ && config_.timeline != nullptr) {
    hv_record_timeline();
  }
  if (!config_.collect_metrics) {
    return;
  }
  // The record's mix slots already hold this run's measured window; every
  // other slot is written here, then the record is summed into the
  // runner's.  What the sample holds is named from the samples when the
  // campaign ends (casestudy::campaign_metrics).
  using Shard = obs::MetricsShard;
  std::uint64_t* const slot = run_metrics_.values.data();
  if (runtime_) {
    const dsr::DsrRuntime::Stats now = runtime_->stats();
    slot[Shard::kDsrReseeds] = now.reseeds - dsr_base_.reseeds;
    slot[Shard::kDsrOndemandReseeds] =
        now.ondemand_reseeds - dsr_base_.ondemand_reseeds;
    slot[Shard::kDsrRelocations] = now.relocations - dsr_base_.relocations;
    slot[Shard::kDsrBytesCopied] = now.bytes_copied - dsr_base_.bytes_copied;
    slot[Shard::kDsrLazyTraps] = now.lazy_traps - dsr_base_.lazy_traps;
    slot[Shard::kDsrLazyCycles] = now.lazy_cycles - dsr_base_.lazy_cycles;
    // The first run of a shard has no live chunks to release: gauge class.
    slot[Shard::kDsrLinesInvalidated] =
        now.lines_invalidated - dsr_base_.lines_invalidated;
  }
  // vm.decode.*: decode-cache activity persists across the runs one
  // runner executes (a different sharding decodes differently), so the
  // whole family is gauge-class — see DecodeCache::Stats.
  const vm::DecodeCache::Stats decode_now = cpu_.decode_stats();
  slot[Shard::kDecodeDecodes] = decode_now.decodes - decode_base_.decodes;
  slot[Shard::kDecodeWriteInvalidationEvents] =
      decode_now.write_invalidation_events -
      decode_base_.write_invalidation_events;
  slot[Shard::kDecodeInvalidatedSlots] =
      decode_now.invalidated_slots - decode_base_.invalidated_slots;
  slot[Shard::kDecodeFullInvalidations] =
      decode_now.full_invalidations - decode_base_.full_invalidations;
  // leak.*: dynamic taint activity over the measured window (hv runs: the
  // whole schedule — cross-partition exposure is the point there).  The
  // per-run deltas and the end-of-run sink walk are pure functions of the
  // run index, so the family is digest-stable across worker counts.
  if (config_.taint) {
    const vm::TaintStats taint_now = cpu_.taint_stats();
    slot[Shard::kLeakPcTaints] = taint_now.pc_taints - taint_base_.pc_taints;
    slot[Shard::kLeakSourceLoads] =
        taint_now.source_loads - taint_base_.source_loads;
    slot[Shard::kLeakTaintedStores] =
        taint_now.tainted_stores - taint_base_.tainted_stores;
    slot[Shard::kLeakSinkStores] =
        taint_now.sink_stores - taint_base_.sink_stores;
    obs::Histogram& sink_bits = run_metrics_.histograms[Shard::kLeakSinkBits];
    sink_bits = obs::Histogram{};
    sink_bits.record(cpu_.taint_sink_bits());
  }
  metrics_.merge_from(run_metrics_);
}

RunSample CampaignRunner::run(std::uint64_t run_index) {
  setup(run_index);
  execute();
  return collect();
}

} // namespace proxima::casestudy
