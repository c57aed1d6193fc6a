//! Fixture: a layer reads a param that only a test sets. Every run reads
//! the default, so the test's setter does not make it a knob. Expect one
//! `dead:param` finding, on the read.

fn create_session(params: &LayerParams) -> Box<dyn Session> {
    Box::new(FixtureSession {
        members: param_node_list(params, "members"),
        retention: param_or(params, "retention", 2048usize).max(16),
    })
}

fn describe() -> LayerSpec {
    LayerSpec::new("fixture").with_param("members", "0,1,2")
}

#[cfg(test)]
mod tests {
    #[test]
    fn retention_is_bounded() {
        let mut params = LayerParams::new();
        params.insert("retention".into(), "16".into());
        let _session = create_session(&params);
    }
}
