#pragma once
// Diagnostics and the machine-readable lint report.
//
// Every check emits Diagnostics with a stable `code` (documented in
// README "fft_lint" section) so tooling can filter without parsing
// message prose. AnalysisReport::to_json() renders the whole run as a
// single JSON object — the format CI archives and the tests assert on.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "paper/codelet.hpp"

namespace c64fft::analysis {

enum class Severity { kWarning, kError };

struct Diagnostic {
  Severity severity = Severity::kError;
  /// Stable machine id: "cycle", "threshold-mismatch", "parent-set-mismatch",
  /// "orphan", "deadlock", "over-arrival", "ambiguous-arrival",
  /// "race-ww", "race-rw", "bank-imbalance", "twiddle-single-bank";
  /// pipeline checks add "write-overlap", "phase-aliasing",
  /// "read-before-write", "coverage-gap", "oob-access",
  /// "load-imbalance", "bank-bytes-imbalance".
  std::string code;
  std::string message;
  /// Primary codelet the finding anchors to (kNoKey when plan-wide).
  codelet::CodeletKey where{kNoStage, 0};

  static constexpr std::uint32_t kNoStage = 0xFFFFFFFFu;
  bool has_location() const noexcept { return where.stage != kNoStage; }
};

/// Outcome of one check ("graph", "races", "banks").
struct CheckResult {
  std::string name;
  /// "pass" (ran, clean), "warn" (warnings only), "fail" (>= 1 error),
  /// "skipped" (not run, reason in `note`).
  std::string status = "pass";
  std::string note;
  std::vector<Diagnostic> diagnostics;
  /// Check-specific numbers (e.g. races.pairs_checked, banks.imbalance).
  std::map<std::string, double> metrics;

  void add(Severity sev, std::string code, std::string message,
           codelet::CodeletKey where = {Diagnostic::kNoStage, 0});
  void finalize();  ///< derives `status` from the diagnostics
  std::size_t errors() const;
  std::size_t warnings() const;
};

struct AnalysisReport {
  // Plan identity (copied from the model).
  std::string plan_name;
  std::uint64_t n = 0;
  unsigned radix_log2 = 0;
  std::uint32_t stages = 0;
  std::size_t codelets = 0;
  std::string schedule;
  std::string layout;

  std::vector<CheckResult> checks;

  std::size_t errors() const;
  std::size_t warnings() const;
  bool passed() const { return errors() == 0; }
  /// "pass" / "warn" / "fail" over all checks.
  std::string status() const;

  /// The whole report as one JSON object (schema in README).
  std::string to_json() const;
};

std::string to_string(Severity s);

}  // namespace c64fft::analysis
