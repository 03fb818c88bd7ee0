// Regenerates the profiling observation that motivates Section IV-A:
// "cores spend up to 50% of their time in the rcce_wait_until method".
// Reports the per-phase time breakdown (max and mean over the 48 cores)
// for an Allreduce under each variant, plus the GCMC application's
// blocking-stack profile.
//
//   tab_wait_profile [--cycles=N] [--metrics=<path>] [--blame]
//                    [--trace=<path>]
//
// --cycles sets the GCMC moves (default 8). --metrics and --blame work as
// in the figure binaries (bench_support.hpp); --trace=<path> records every
// profiled run into one chrome://tracing file (one run scope per variant).
#include <algorithm>
#include <iostream>
#include <string>

#include "bench_support.hpp"
#include "gcmc/app.hpp"
#include "machine/profile.hpp"
#include "trace/chrome_export.hpp"

namespace {

using scc::machine::CoreProfile;
using scc::machine::Phase;
using scc::harness::PaperVariant;

struct Breakdown {
  double wait_max_pct = 0.0;
  double wait_mean_pct = 0.0;
  double overhead_mean_pct = 0.0;
  double transfer_mean_pct = 0.0;
  double compute_mean_pct = 0.0;
};

Breakdown analyze(const std::vector<CoreProfile>& profiles) {
  Breakdown b;
  double wait_sum = 0.0, overhead_sum = 0.0, transfer_sum = 0.0,
         compute_sum = 0.0;
  for (const CoreProfile& p : profiles) {
    const double total = p.total().seconds();
    if (total <= 0.0) continue;
    const double wait = p.get(Phase::kFlagWait).seconds() / total * 100.0;
    b.wait_max_pct = std::max(b.wait_max_pct, wait);
    wait_sum += wait;
    overhead_sum += p.get(Phase::kSwOverhead).seconds() / total * 100.0;
    transfer_sum += p.get(Phase::kMpbTransfer).seconds() / total * 100.0;
    compute_sum += (p.get(Phase::kCompute) + p.get(Phase::kPrivMem)).seconds() /
                   total * 100.0;
  }
  const double n = static_cast<double>(profiles.size());
  b.wait_mean_pct = wait_sum / n;
  b.overhead_mean_pct = overhead_sum / n;
  b.transfer_mean_pct = transfer_sum / n;
  b.compute_mean_pct = compute_sum / n;
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  scc::bench::Instruments inst;
  std::string trace_path;
  int cycles = 0;
  scc::bench::read_flags(argc, argv, [&](const scc::CliFlags& flags) {
    inst.read(flags);
    trace_path = flags.get("trace", "");
    cycles = flags.get_positive_int("cycles", 8);
  });
  // With --trace= the recorder accumulates every variant into one file;
  // with --blame alone each variant gets the full capacity to itself.
  scc::trace::Recorder recorder(/*capacity=*/std::size_t{1} << 20);
  const bool traced = !trace_path.empty() || inst.blame;

  const PaperVariant variants[] = {PaperVariant::kBlocking,
                                   PaperVariant::kIrcce,
                                   PaperVariant::kLightweight,
                                   PaperVariant::kLwBalanced,
                                   PaperVariant::kMpb};
  Breakdown breakdowns[5];
  for (int i = 0; i < 5; ++i) {
    if (traced && trace_path.empty()) recorder.clear();
    scc::harness::RunSpec spec;
    spec.collective = scc::harness::Collective::kAllreduce;
    spec.variant = variants[i];
    spec.elements = 552;
    spec.repetitions = 3;
    spec.warmup = 1;
    spec.verify = false;
    spec.collect_profiles = true;
    spec.collect_metrics = !inst.metrics_path.empty();
    spec.trace = traced ? &recorder : nullptr;
    const auto result = scc::harness::run_collective(spec);
    breakdowns[i] = analyze(result.profiles);
    const std::string variant{scc::harness::variant_name(variants[i])};
    if (result.metrics)
      inst.metrics.absorb(*result.metrics, "profile/" + variant + "/");
    if (inst.blame) inst.add_blame(recorder, result, variant, 552);
  }

  std::cout << "\n=== Per-core time breakdown, Allreduce(552) on 48 cores ===\n";
  scc::Table table({"variant", "wait max", "wait mean", "sw-overhead",
                    "mpb-transfer", "compute+mem"});
  for (int i = 0; i < 5; ++i) {
    const Breakdown& b = breakdowns[i];
    table.add_row({std::string(scc::harness::variant_name(variants[i])),
                   scc::strprintf("%.0f%%", b.wait_max_pct),
                   scc::strprintf("%.0f%%", b.wait_mean_pct),
                   scc::strprintf("%.0f%%", b.overhead_mean_pct),
                   scc::strprintf("%.0f%%", b.transfer_mean_pct),
                   scc::strprintf("%.0f%%", b.compute_mean_pct)});
  }
  table.print(std::cout);

  // The paper's actual profile subject: the application on the blocking
  // stack ("up to 50% of their time in rcce_wait_until").
  scc::gcmc::AppParams params;
  params.model.kmaxvecs = 276;
  params.particles_total = 240;
  params.max_local_particles = 12;
  params.cycles = cycles;
  const auto app =
      scc::gcmc::run_app(params, PaperVariant::kBlocking);
  const Breakdown b = analyze(app.profiles);
  std::cout << scc::strprintf(
      "\nGCMC application, blocking stack: wait max %.0f%% / mean %.0f%% of "
      "core time (paper: up to 50%%)\n",
      b.wait_max_pct, b.wait_mean_pct);
  scc::bench::write_outputs("tab_wait_profile", table, inst);
  if (!trace_path.empty()) {
    scc::trace::write_chrome_json_file(recorder, trace_path);
    std::cout << "trace written to " << trace_path << " ("
              << recorder.events().size() << " events, " << recorder.dropped()
              << " dropped)\n";
  }
  return 0;
}
