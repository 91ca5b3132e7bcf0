#include "harness/wcdp.hpp"

#include <span>

#include "harness/experiment.hpp"
#include "harness/rowhammer_test.hpp"

namespace vppstudy::harness {

using common::Error;
using dram::DataPattern;

common::Expected<DataPattern> find_wcdp_hammer(softmc::Session& session,
                                               std::uint32_t bank,
                                               std::uint32_t row,
                                               std::uint64_t probe_hc) {
  RowHammerConfig cfg;
  cfg.num_iterations = 1;
  RowHammerTest test(session, cfg);

  // Escalate the probe count until at least one pattern produces flips
  // (strong rows may survive 300K on every pattern).
  for (int escalation = 0; escalation < 4; ++escalation) {
    // Section 4.2's ranking: the pattern with the *lowest HCfirst* wins,
    // tie-broken by the largest BER at the probe count. A coarse halving
    // ladder per pattern finds the smallest flipping count; ranking by the
    // weakest cell (not by flip counts) is what makes the WCDP stable
    // across VPP levels (footnote 9).
    DataPattern best = DataPattern::kCheckerAA;
    std::uint64_t best_first_hc = ~0ULL;
    double best_ber = 0.0;
    for (const DataPattern p : dram::kAllPatterns) {
      auto ber = test.measure_ber(bank, row, p, probe_hc);
      if (!ber) {
        return std::move(ber).error().with_context("wcdp hammer probe");
      }
      if (*ber <= 0.0) continue;
      // Halve until the flips disappear: the last flipping count is the
      // coarse HCfirst of this pattern.
      std::uint64_t first_hc = probe_hc;
      for (std::uint64_t hc = probe_hc / 2; hc >= probe_hc / 32; hc /= 2) {
        auto b = test.measure_ber(bank, row, p, hc);
        if (!b) {
          return std::move(b).error().with_context("wcdp halving ladder");
        }
        if (*b <= 0.0) break;
        first_hc = hc;
      }
      if (first_hc < best_first_hc ||
          (first_hc == best_first_hc && *ber > best_ber)) {
        best_first_hc = first_hc;
        best_ber = *ber;
        best = p;
      }
    }
    if (best_first_hc != ~0ULL) return best;
    probe_hc *= 4;
  }
  // Nothing flips even at escalated counts: the choice is immaterial.
  return DataPattern::kCheckerAA;
}

common::Expected<std::vector<DataPattern>> find_wcdp_hammer_rows(
    softmc::Session& session, std::uint32_t bank,
    std::span<const std::uint32_t> rows, std::uint64_t probe_hc) {
  std::vector<DataPattern> out;
  out.reserve(rows.size());
  for (const std::uint32_t row : rows) {
    VPP_ASSIGN_OR_RETURN(const DataPattern p,
                         find_wcdp_hammer(session, bank, row, probe_hc));
    out.push_back(p);
  }
  return out;
}

common::Expected<DataPattern> find_wcdp_retention(softmc::Session& session,
                                                  std::uint32_t bank,
                                                  std::uint32_t row,
                                                  double probe_trefw_ms) {
  DataPattern best = DataPattern::kCheckerAA;
  double best_ber = -1.0;
  for (const DataPattern p : dram::kAllPatterns) {
    const auto image = dram::pattern_row(p, dram::kBytesPerRow);
    VPP_RETURN_IF_ERROR_CTX(session.init_row(bank, row, image),
                            "wcdp retention init");
    VPP_RETURN_IF_ERROR_CTX(session.wait_ms(probe_trefw_ms),
                            "wcdp retention wait");
    auto observed = session.read_row(bank, row, kSafeReadTrcdNs);
    if (!observed) {
      return std::move(observed).error().with_context("wcdp retention read");
    }
    const double ber = bit_error_rate(image, *observed);
    if (ber > best_ber) {
      best_ber = ber;
      best = p;
    }
  }
  return best;
}

common::Expected<DataPattern> find_wcdp_trcd(softmc::Session& session,
                                             std::uint32_t bank,
                                             std::uint32_t row,
                                             double probe_trcd_ns) {
  DataPattern best = DataPattern::kCheckerAA;
  std::uint64_t best_errors = 0;
  for (const DataPattern p : dram::kAllPatterns) {
    const auto image = dram::pattern_row(p, dram::kBytesPerRow);
    VPP_RETURN_IF_ERROR_CTX(session.init_row(bank, row, image),
                            "wcdp trcd init");
    std::uint64_t errors = 0;
    for (std::uint32_t c = 0; c < dram::kColumnsPerRow; c += 64) {
      auto word = session.read_column_with_trcd(bank, row, c, probe_trcd_ns);
      if (!word) {
        return std::move(word).error().with_context("wcdp trcd probe");
      }
      errors += count_bit_flips(
          std::span(image).subspan(c * dram::kBytesPerColumn,
                                   dram::kBytesPerColumn),
          *word);
    }
    if (errors > best_errors) {
      best_errors = errors;
      best = p;
    }
  }
  return best;
}

}  // namespace vppstudy::harness
