//! Explicit session policies compose with every scheme: a fixed round cap,
//! run-to-cap stopping and a disabled trace together still let every
//! general scheme complete.

use radio_labeling::broadcast::session::{
    RoundCapPolicy, Scheme, Session, StopPolicy, TracePolicy,
};
use radio_labeling::graph::generators;
use std::sync::Arc;

#[test]
fn explicit_policies_compose_with_every_scheme() {
    let g = Arc::new(generators::grid(4, 4));
    for scheme in Scheme::GENERAL {
        let r = Session::builder(scheme, Arc::clone(&g))
            .message(42)
            .stop(StopPolicy::RunToCap)
            .round_cap(RoundCapPolicy::Fixed(4096))
            .trace(TracePolicy::Disabled)
            .build()
            .unwrap()
            .run();
        assert!(r.completed(), "{} under explicit policies", scheme.name());
    }
}
