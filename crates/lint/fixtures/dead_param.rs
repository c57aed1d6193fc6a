//! Fixture: a layer reads a param that nothing sets — every run gets the
//! default. Expect one `dead:param` finding, on the orphan key's read.

fn create_session(params: &LayerParams) -> Box<dyn Session> {
    Box::new(FixtureSession {
        members: param_node_list(params, "members"),
        sweep_interval_ms: param_or(params, "sweep_interval_ms", 200u64).max(10),
    })
}

fn describe() -> LayerSpec {
    LayerSpec::new("fixture").with_param("members", "0,1,2")
}
