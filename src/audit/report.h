// Exporters for the audit layer: the machine-readable `roload.audit.v1`
// JSON document and a human-readable forensic text report. Like the
// trace exporters, both are deterministic for a deterministic run.
#pragma once

#include <string>

#include "audit/audit.h"

namespace roload::audit {

// {"schema":"roload.audit.v1",
//  "census":{"total_pass":N,"total_fail":N,
//            "sites":[{pc,key,passes,fails,last_outcome,pages,
//                      pages_saturated,symbol},...],
//            "per_key":[{key,sites,passes,fails,section},...]},
//  "autopsies":[{...}]}
// Sites are pc-sorted, per_key entries key-sorted; `symbol`/`section`
// attribution is "" when the image has none.
std::string ExportAuditJson(const Auditor& auditor);

// Multi-line human report: one autopsy block per fatal fault (the worked
// example in docs/OBSERVABILITY.md shows the layout), then a census
// summary table.
std::string ExportAuditText(const Auditor& auditor);

}  // namespace roload::audit
