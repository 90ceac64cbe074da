//! Simulated results at the default seed, pinned per workload: the output
//! check of every run at seed 42. A change that alters any of these alters
//! what the simulator computes, not how fast it computes it.

use crate::outcome::SimResult;
use crate::workloads::Kind;

pub fn pinned(kind: Kind) -> SimResult {
    match kind {
        Kind::WeekReplay => SimResult {
            brown_kwh: 12.26292018395247,
            deadline_met_ratio: 1.0,
            interactive_p99_ms: 26.340438277845983,
            executed_batch_bytes: 685_410_066_359_613,
            requests_served: 7_111_930,
            jobs_offered: 3148,
        },
        Kind::MegaService => SimResult {
            brown_kwh: 12.479283890554004,
            deadline_met_ratio: 1.0,
            interactive_p99_ms: 27.15160223786469,
            executed_batch_bytes: 685_410_066_359_613,
            requests_served: 20_843_118,
            jobs_offered: 3148,
        },
        Kind::GeoArchive => SimResult {
            brown_kwh: 458.53526496082696,
            deadline_met_ratio: 0.5639559508682761,
            interactive_p99_ms: 21.767497870173727,
            executed_batch_bytes: 3_064_995_622_302_167,
            requests_served: 71_206,
            jobs_offered: 18_888,
        },
    }
}
