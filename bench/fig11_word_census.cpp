// Fig. 11: distribution of DRAM rows by the number of erroneous 64-bit data
// words they contain at (a) tREFW = 64ms and (b) 128ms, at VPPmin -- rows
// that fail at that window but not at a smaller one.
// Paper results to reproduce (Obsv. 14/15): every erroneous word has exactly
// one flipped bit (SECDED-correctable); at 64ms Mfr. A is clean while 15.5%
// of Mfr. B rows show 4 erroneous words and 0.2% of Mfr. C rows show 1;
// overall 16.4% / 5.0% of rows are erroneous at 64 / 128ms.
#include <cstdio>
#include <cstdlib>
#include <map>

#include "bench_common.hpp"
#include "common/units.hpp"
#include "harness/retention_test.hpp"
#include "softmc/session.hpp"

int main() {
  using namespace vppstudy;
  long rows_per_module = 160;
  if (const char* env = std::getenv("VPP_BENCH_ROWS")) {
    rows_per_module = std::max(8L, std::strtol(env, nullptr, 10) * 4L);
  }
  std::printf("# Fig. 11: erroneous-word census at VPPmin (%ld rows/module; "
              "paper: 4096)\n", rows_per_module);
  std::printf("# note: Mfr. B's 116-word row class has frequency 1e-4 and "
              "only appears in large samples\n\n");

  for (const double window_ms : {64.0, 128.0}) {
    std::printf("tREFW = %.0fms (rows failing here but not at %.0fms):\n",
                window_ms, window_ms / 2.0);
    // vendor -> (words-with-one-flip count -> rows)
    std::map<dram::Manufacturer, std::map<std::uint64_t, std::uint64_t>> hist;
    // Fractions are over rows of *affected* modules (those exhibiting any
    // flip at this window), matching the paper's per-vendor percentages.
    std::map<dram::Manufacturer, std::uint64_t> rows_affected_modules;
    std::uint64_t multi_bit_words = 0;
    std::uint64_t secded_uncorrectable_rows = 0;

    for (const auto& profile : chips::all_profiles()) {
      // Characterization rig (section 4.1): refresh disabled, 50C, then the
      // retention setpoint.
      softmc::Session session(profile);
      session.set_auto_refresh(false);
      (void)session.set_temperature(common::kHammerTestTempC);
      if (!session.set_temperature(common::kRetentionTestTempC).ok()) continue;
      if (!session.set_vpp(profile.vppmin_v).ok()) continue;
      harness::RetentionTest test(session, harness::RetentionConfig{});
      const auto rows = harness::RowSampling{
          0, 4, static_cast<std::uint32_t>(rows_per_module / 4)}
                            .sample(session.module().mapping());
      std::uint64_t module_rows = 0;
      std::uint64_t module_err_rows = 0;
      for (const std::uint32_t row : rows) {
        auto at_half = test.census_at(0, row, dram::DataPattern::kCheckerAA,
                                      window_ms / 2.0);
        if (!at_half || at_half->census.erroneous_words() > 0) continue;
        auto at_window =
            test.census_at(0, row, dram::DataPattern::kCheckerAA, window_ms);
        if (!at_window) continue;
        ++module_rows;
        const auto& c = at_window->census;
        if (c.erroneous_words() == 0) continue;
        ++module_err_rows;
        ++hist[profile.mfr][c.single_bit_words];
        multi_bit_words += c.multi_bit_words;
        if (!c.secded_correctable()) ++secded_uncorrectable_rows;
      }
      if (module_err_rows > 0) {
        rows_affected_modules[profile.mfr] += module_rows;
      }
    }

    std::uint64_t err_rows = 0;
    std::uint64_t all_rows = 0;
    for (const auto& [mfr, counts] : hist) {
      for (const auto& [words, n] : counts) {
        std::printf("  %s: %llu row(s) with %llu erroneous word(s) "
                    "(%.2f%% of affected-module rows)\n",
                    dram::manufacturer_name(mfr),
                    static_cast<unsigned long long>(n),
                    static_cast<unsigned long long>(words),
                    100.0 * static_cast<double>(n) /
                        static_cast<double>(rows_affected_modules[mfr]));
        err_rows += n;
      }
    }
    for (const auto& [mfr, n] : rows_affected_modules) all_rows += n;
    std::printf(
        "  total: %.1f%% of rows erroneous (paper: %.1f%%); multi-bit words: "
        "%llu; SECDED-uncorrectable rows: %llu (paper + Obsv. 14: 0)\n\n",
        all_rows ? 100.0 * static_cast<double>(err_rows) /
                       static_cast<double>(all_rows)
                 : 0.0,
        window_ms < 100.0 ? 16.4 : 5.0,
        static_cast<unsigned long long>(multi_bit_words),
        static_cast<unsigned long long>(secded_uncorrectable_rows));
  }
  return 0;
}
