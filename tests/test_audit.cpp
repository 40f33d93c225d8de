// Security-forensics tests (src/audit): the ld.ro dispatch census, fault
// autopsies for each failure class, the exporters, the attack-harness
// forensic verdicts, and — mirroring the telemetry guarantee — that
// enabling auditing never perturbs the simulation.
#include <gtest/gtest.h>

#include <string>

#include "audit/audit.h"
#include "audit/report.h"
#include "core/system.h"
#include "sec/attack.h"
#include "tests/guest_util.h"

namespace roload {
namespace {

core::SystemConfig AuditConfig() {
  core::SystemConfig config;
  config.trace.audit = true;
  return config;
}

// Two keyed-load sites: one in a loop (key 9, four executions), one
// straight-line (key 5).
constexpr const char* kCensusSource = R"(
.section .text
_start:
  li s0, 4
  la t0, secret
loop:
  ld.ro t1, (t0), 9
  addi s0, s0, -1
  bnez s0, loop
  la t2, table
  ld.ro t3, (t2), 5
  li a0, 0
  li a7, 93
  ecall
.section .rodata.key.9
secret:
  .quad 1234
.section .rodata.key.5
table:
  .quad 99
)";

// The faulting ld.ro names key 5, but `secret` lives in the key-9
// section — and the image *does* have a key-5 section the access should
// have resolved into.
constexpr const char* kKeyMismatchSource = R"(
.section .text
_start:
  la t0, secret
  ld.ro t1, (t0), 5
  li a7, 93
  ecall
.section .rodata.key.9
secret:
  .quad 1234
.section .rodata.key.5
legit:
  .quad 4321
)";

// The faulting ld.ro targets a writable .data page.
constexpr const char* kWritablePageSource = R"(
.section .text
_start:
  la t0, mutable
  ld.ro t1, (t0), 9
  li a7, 93
  ecall
.section .rodata.key.9
secret:
  .quad 1234
.section .data
mutable:
  .quad 5678
)";

// ---------------------------------------------------------------------------
// Dispatch census.

TEST(AuditCensusTest, CountsSitesKeysAndOutcomes) {
  const testing::GuestRun run = testing::RunGuest(kCensusSource,
                                                 AuditConfig());
  ASSERT_EQ(run.result.kind, kernel::ExitKind::kExited);
  ASSERT_EQ(run.result.exit_code, 0);
  const audit::Auditor* auditor = run.system->audit();
  ASSERT_NE(auditor, nullptr);

  const audit::DispatchCensus& census = auditor->census();
  ASSERT_EQ(census.sites().size(), 2u);
  EXPECT_EQ(census.total_passes(), 5u);
  EXPECT_EQ(census.total_fails(), 0u);

  const auto per_key = census.PerKey();
  ASSERT_EQ(per_key.size(), 2u);
  ASSERT_TRUE(per_key.count(9));
  ASSERT_TRUE(per_key.count(5));
  EXPECT_EQ(per_key.at(9).sites, 1u);
  EXPECT_EQ(per_key.at(9).passes, 4u);
  EXPECT_EQ(per_key.at(5).sites, 1u);
  EXPECT_EQ(per_key.at(5).passes, 1u);

  for (const auto& [pc, site] : census.sites()) {
    EXPECT_EQ(site.pc, pc);
    EXPECT_EQ(site.fails, 0u);
    EXPECT_EQ(site.last_outcome, audit::CheckOutcome::kPass);
    EXPECT_EQ(site.pages.size(), 1u);  // each site reads one page
    EXPECT_FALSE(site.pages_saturated);
  }

  // The census is also a counter source in the system registry.
  const trace::CounterRegistry& counters = run.system->trace().counters();
  EXPECT_EQ(counters.Value("audit.census.sites"), 2u);
  EXPECT_EQ(counters.Value("audit.census.pass"), 5u);
  EXPECT_EQ(counters.Value("audit.census.fail"), 0u);
  EXPECT_EQ(counters.Value("audit.autopsies"), 0u);
}

TEST(AuditCensusTest, FailingSiteRecordsOutcome) {
  const testing::GuestRun run = testing::RunGuest(kKeyMismatchSource,
                                                 AuditConfig());
  ASSERT_EQ(run.result.kind, kernel::ExitKind::kKilled);
  const audit::Auditor* auditor = run.system->audit();
  ASSERT_NE(auditor, nullptr);

  const audit::DispatchCensus& census = auditor->census();
  ASSERT_EQ(census.sites().size(), 1u);
  const audit::SiteRecord& site = census.sites().begin()->second;
  EXPECT_EQ(site.key, 5u);
  EXPECT_EQ(site.passes, 0u);
  EXPECT_EQ(site.fails, 1u);
  EXPECT_EQ(site.last_outcome, audit::CheckOutcome::kKeyMismatch);
  EXPECT_EQ(census.total_fails(), 1u);
}

// ---------------------------------------------------------------------------
// Fault autopsies.

TEST(AuditAutopsyTest, KeyMismatchCapturesBothKeys) {
  const testing::GuestRun run = testing::RunGuest(kKeyMismatchSource,
                                                 AuditConfig());
  ASSERT_EQ(run.result.kind, kernel::ExitKind::kKilled);
  ASSERT_TRUE(run.result.roload_violation);
  const audit::Auditor* auditor = run.system->audit();
  ASSERT_NE(auditor, nullptr);
  ASSERT_EQ(auditor->autopsies().size(), 1u);

  const audit::Autopsy& autopsy = auditor->autopsies().front();
  EXPECT_EQ(autopsy.classification, "key-mismatch");
  EXPECT_EQ(autopsy.cause, isa::TrapCause::kRoLoadPageFault);
  EXPECT_EQ(autopsy.signal, kernel::kSigsegv);
  EXPECT_TRUE(autopsy.roload_violation);
  EXPECT_EQ(autopsy.fault_pc, run.result.fault_pc);
  EXPECT_EQ(autopsy.fault_va, run.result.fault_addr);

  // The two halves of the failed check, recovered independently: the
  // instruction's static key and the PTE key of the page it hit.
  EXPECT_TRUE(autopsy.inst_decoded);
  EXPECT_TRUE(autopsy.inst_is_roload);
  EXPECT_EQ(autopsy.inst_key, 5u);
  EXPECT_EQ(autopsy.pte_key, 9u);
  EXPECT_NE(autopsy.inst_key, autopsy.pte_key);
  EXPECT_TRUE(autopsy.page_mapped);
  EXPECT_TRUE(autopsy.page_readable);
  EXPECT_FALSE(autopsy.page_writable);

  // Image attribution: where the access landed vs. where key 5 says it
  // should have resolved.
  EXPECT_EQ(autopsy.va_section, ".rodata.key.9");
  EXPECT_EQ(autopsy.expected_section, ".rodata.key.5");
  EXPECT_EQ(autopsy.va_symbol, "secret");
  EXPECT_NE(autopsy.fault_symbol.find("_start"), std::string::npos);

  ASSERT_FALSE(autopsy.backtrace.empty());
  EXPECT_EQ(autopsy.backtrace.front(), autopsy.fault_pc);
  // Register snapshot: t0 (x5) still holds the target address.
  EXPECT_EQ(autopsy.regs[5], autopsy.fault_va);

  EXPECT_EQ(run.system->trace().counters().Value("audit.autopsies"), 1u);
}

TEST(AuditAutopsyTest, WritablePageClassified) {
  const testing::GuestRun run = testing::RunGuest(kWritablePageSource,
                                                 AuditConfig());
  ASSERT_EQ(run.result.kind, kernel::ExitKind::kKilled);
  const audit::Auditor* auditor = run.system->audit();
  ASSERT_NE(auditor, nullptr);
  ASSERT_EQ(auditor->autopsies().size(), 1u);

  const audit::Autopsy& autopsy = auditor->autopsies().front();
  EXPECT_EQ(autopsy.classification, "writable-page");
  EXPECT_TRUE(autopsy.page_mapped);
  EXPECT_TRUE(autopsy.page_writable);
  EXPECT_EQ(autopsy.inst_key, 9u);
  EXPECT_EQ(autopsy.va_section, ".data");
  EXPECT_EQ(autopsy.expected_section, ".rodata.key.9");
}

// ---------------------------------------------------------------------------
// Exporters.

TEST(AuditExportTest, JsonCarriesSchemaCensusAndAutopsy) {
  const testing::GuestRun run = testing::RunGuest(kKeyMismatchSource,
                                                 AuditConfig());
  ASSERT_EQ(run.result.kind, kernel::ExitKind::kKilled);
  const std::string json = audit::ExportAuditJson(*run.system->audit());
  EXPECT_NE(json.find("\"schema\": \"roload.audit.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"classification\": \"key-mismatch\""),
            std::string::npos);
  EXPECT_NE(json.find("\"expected_section\": \".rodata.key.5\""),
            std::string::npos);
  EXPECT_NE(json.find("\"per_key\""), std::string::npos);
  EXPECT_NE(json.find("\"backtrace\""), std::string::npos);
}

TEST(AuditExportTest, TextReportNamesTheEvidence) {
  const testing::GuestRun run = testing::RunGuest(kKeyMismatchSource,
                                                 AuditConfig());
  ASSERT_EQ(run.result.kind, kernel::ExitKind::kKilled);
  const std::string text = audit::ExportAuditText(*run.system->audit());
  EXPECT_NE(text.find("ROLoad fault autopsy"), std::string::npos);
  EXPECT_NE(text.find("key-mismatch"), std::string::npos);
  EXPECT_NE(text.find("dispatch census"), std::string::npos);
  EXPECT_NE(text.find("(key 5)"), std::string::npos);
}

TEST(AuditExportTest, ExportIsDeterministicAcrossRuns) {
  const testing::GuestRun a = testing::RunGuest(kCensusSource, AuditConfig());
  const testing::GuestRun b = testing::RunGuest(kCensusSource, AuditConfig());
  EXPECT_EQ(audit::ExportAuditJson(*a.system->audit()),
            audit::ExportAuditJson(*b.system->audit()));
}

// ---------------------------------------------------------------------------
// The observation-only guarantee: auditing changes nothing the guest can
// observe — same exit, same instruction/cycle counts, same registers.

TEST(AuditDifferentialTest, AuditingIsBitIdenticalToDisabled) {
  for (const char* source : {kCensusSource, kKeyMismatchSource}) {
    const testing::GuestRun plain = testing::RunGuest(source);
    const testing::GuestRun audited = testing::RunGuest(source,
                                                        AuditConfig());
    EXPECT_EQ(audited.result.kind, plain.result.kind);
    EXPECT_EQ(audited.result.exit_code, plain.result.exit_code);
    EXPECT_EQ(audited.result.signal, plain.result.signal);
    EXPECT_EQ(audited.result.instructions, plain.result.instructions);
    EXPECT_EQ(audited.result.cycles, plain.result.cycles);
    for (unsigned r = 0; r < isa::kNumRegs; ++r) {
      EXPECT_EQ(audited.system->cpu().reg(r), plain.system->cpu().reg(r))
          << "x" << r;
    }
    EXPECT_EQ(audited.system->cpu().pc(), plain.system->cpu().pc());
  }
}

// ---------------------------------------------------------------------------
// Attack-harness forensics: every ROLoad-blocked attack must come with an
// autopsy whose keys disagree in exactly the way the sabotage predicts.

TEST(AuditAttackTest, VtableInjectionAutopsyShowsWritablePage) {
  auto run = sec::RunAttackSmp(sec::AttackKind::kVtableInjection,
                               core::Defense::kVCall);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->outcome, sec::AttackOutcome::kBlocked);
  ASSERT_TRUE(run->autopsy);
  EXPECT_TRUE(run->roload_violation);
  // The fake vtable lives in the attacker's writable buffer: key 0,
  // writable — both halves of the check refuse it.
  EXPECT_NE(run->autopsy->inst_key, run->autopsy->pte_key);
  EXPECT_EQ(run->autopsy->pte_key, 0u);
  EXPECT_TRUE(run->autopsy->page_writable);
  EXPECT_EQ(run->classification.rfind("caught:writable-page", 0), 0u)
      << run->classification;
}

TEST(AuditAttackTest, FnPtrHijackAutopsyShowsKeyEvidence) {
  auto run = sec::RunAttackSmp(sec::AttackKind::kFnPtrCorruptToEvil,
                               core::Defense::kICall);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->outcome, sec::AttackOutcome::kBlocked);
  ASSERT_TRUE(run->autopsy);
  // The hijacked dispatch tried to ld.ro through the raw code address of
  // `evil` — which lives outside every keyed allowlist section, so the
  // autopsy's keys disagree exactly as the sabotage predicts. (Which
  // hardware check trips first depends on the address: a non-8-aligned
  // code address faults on alignment before the key comparison; either
  // way the dispatch is dead and the evidence is captured.)
  EXPECT_NE(run->autopsy->inst_key, run->autopsy->pte_key);
  EXPECT_NE(run->autopsy->inst_key, 0u);
  EXPECT_EQ(run->autopsy->pte_key, 0u);
  EXPECT_EQ(run->classification.rfind("caught:", 0), 0u)
      << run->classification;
}

TEST(AuditAttackTest, CfiAbortBlocksWithoutAutopsy) {
  auto run = sec::RunAttackSmp(sec::AttackKind::kFnPtrCorruptToEvil,
                               core::Defense::kClassicCfi);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->outcome, sec::AttackOutcome::kBlocked);
  // Software CFI aborts via exit(134): no fault, no autopsy.
  EXPECT_FALSE(run->autopsy);
  EXPECT_EQ(run->classification, "caught:cfi-abort");
}

TEST(AuditAttackTest, UndefendedHijackIsClassifiedMissed) {
  auto run = sec::RunAttackSmp(sec::AttackKind::kFnPtrCorruptToEvil,
                               core::Defense::kNone);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->outcome, sec::AttackOutcome::kHijacked);
  EXPECT_EQ(run->classification, "missed:hijacked");
  EXPECT_FALSE(run->counters.empty());
}

}  // namespace
}  // namespace roload
