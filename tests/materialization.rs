//! Each pipeline materializes the point-record table exactly once.
//!
//! Before the plan layer, `lsh_ddp::run` built `point_records(ds)` twice
//! (once for the rho job, once for the delta job). Pipelines now share
//! one immutable [`ddp::common::point_snapshot`] per run; the global
//! materialization counter proves it.
//!
//! One `#[test]` measures all pipelines sequentially: the counter is
//! process-global, so concurrent tests in this binary would interfere.

use lsh_ddp::prelude::*;

#[test]
fn every_pipeline_materializes_point_records_once() {
    let ds = datasets::gaussian_mixture(2, 3, 40, 30.0, 1.0, 17).data;
    let dc = 1.2;

    let count = |label: &str, expected: u64, run: &mut dyn FnMut()| {
        let before = ddp::common::point_record_materializations();
        run();
        let delta = ddp::common::point_record_materializations() - before;
        assert_eq!(delta, expected, "{label}: point_records materializations");
    };

    let lsh = LshDdp::with_accuracy(0.97, 6, 3, dc, 13).expect("valid params");
    count("lsh_ddp::run", 1, &mut || {
        lsh.run(&ds, dc);
    });
    count("lsh_ddp::run_auto_dc", 1, &mut || {
        LshDdp::run_auto_dc(&ds, 0.97, 6, 3, 0.02, 200, 13).expect("auto dc run");
    });

    let basic = BasicDdp::new(BasicConfig {
        block_size: 16,
        ..Default::default()
    });
    count("basic::run", 1, &mut || {
        basic.run(&ds, dc);
    });
    count("basic::run_auto_dc", 1, &mut || {
        basic.run_auto_dc(&ds, 0.02, 200, 13);
    });

    let eddpc = Eddpc::new(EddpcConfig {
        n_pivots: 8,
        seed: 4,
        pipeline: Default::default(),
    });
    count("eddpc::run", 1, &mut || {
        eddpc.run(&ds, dc);
    });
}
