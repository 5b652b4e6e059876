//! Runs a reduced size of every workload twice, untraced and traced,
//! and checks that the outcomes and the deterministic work counts repeat
//! exactly, and that tracing changes no outcome: nothing a run reports
//! as an outcome may depend on the clock.

use perfbench::inputs::Plan;
use perfbench::{run, Report, Workload};

fn reduced(workload: Workload, traced: bool) -> Plan {
    let mut plan = Plan::for_seconds(workload, 1, traced);
    (plan.jobs, plan.warmup) = match workload {
        Workload::Compile => (48, 12),
        Workload::Tight => (6, 2),
        Workload::Scale => (1, 1),
        Workload::Service => (24, 4),
    };
    plan.scale_sizes = vec![250, 500, 1_000];
    plan
}

fn twice(workload: Workload, traced: bool) -> (Report, Report) {
    let plan = reduced(workload, traced);
    let first = run(&plan, 7, traced);
    let second = run(&plan, 7, traced);
    for report in [&first, &second] {
        assert!(report.correct(), "{workload:?}: {:?}", report.errors);
        assert!(report.attempted > 0);
    }
    assert_eq!(first.digest, second.digest, "{workload:?}: outcome digest");
    assert_eq!(first.attempted, second.attempted);
    assert_eq!(first.failed, second.failed);
    (first, second)
}

fn same(first: &Report, second: &Report, names: &[&str]) {
    for name in names {
        let a = first
            .metric(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(Some(a), second.metric(name), "{name}");
    }
}

#[test]
fn outcomes_and_work_counts_repeat() {
    for workload in Workload::ALL {
        let (untraced, again) = twice(workload, false);
        same(&untraced, &again, &["solved_ratio"]);
        let (traced, again) = twice(workload, true);
        assert_eq!(
            untraced.digest, traced.digest,
            "{workload:?}: the traced run reaches other outcomes than the untraced run"
        );
        same(
            &traced,
            &again,
            &[
                "search.steps",
                "portfolio.steps_total",
                "cp.propagations",
                "server.cache_hit_ratio",
                "ladder.heuristic_share",
            ],
        );
        if workload == Workload::Service {
            let hits = traced.metric("server.cache_hit_ratio").expect("reported");
            assert!(hits > 0.0, "renamed repeats must be served from the cache");
            assert_eq!(traced.metric("server.rejected"), Some(0.0));
        }
    }
}
