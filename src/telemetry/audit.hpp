#pragma once
// Invariant-audit plumbing: the policy engine recomputes its own
// ground truth (PolicyEngine::audit_invariants, wrapped by
// serve::TenantEngine's quota audit when tenancy is on — one line per
// violation); this module owns what happens with the result: when
// audits run by default, how reports are formatted for stderr,
// diagnostic bundles and the /status endpoint, and the fail-stop on
// violation.
//
// Gating: audits are O(blocks + live tasks) under the engine lock, so they
// default on exactly where they are wanted — debug builds and
// sanitizer CI (-DHMR_SANITIZE defines HMR_AUDIT_DEFAULT) — and off
// in release, with three overrides: Config::audit (rt), SimConfig::
// audit (sim), and the HMR_AUDIT=0/1 environment kill switch, which
// beats both.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace hmr::telemetry {

struct AuditReport {
  double time = 0; // seconds (registry/runtime clock) when audited
  bool at_quiescence = false;
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
};

/// Resolve the audit on/off decision: `config` is the executor knob
/// (-1 = auto, 0 = off, 1 = on); auto consults HMR_AUDIT in the
/// environment, then the build default (!NDEBUG || HMR_AUDIT_DEFAULT).
/// HMR_AUDIT always wins when set, even over an explicit knob, so CI
/// can force audits through binaries it does not configure.
bool audit_enabled(int config);

/// Human-readable report ("audit clean" / numbered violations).
std::string format_audit(const AuditReport& r);

/// JSON object {"time":..,"at_quiescence":..,"ok":..,
/// "violations":[..]} for /status.
void write_audit_json(std::ostream& os, const AuditReport& r);

/// Print the report to stderr and abort when it has violations; the
/// executors call this so a corrupt ledger fails the run loudly
/// instead of skewing results.
void check_audit(const AuditReport& r);

} // namespace hmr::telemetry
