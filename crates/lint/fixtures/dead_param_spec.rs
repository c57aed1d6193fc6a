//! Fixture: a param that a `LayerSpec` outside test code sets is live,
//! and stays live when a test sets it too. Expect no findings. Read as a
//! consumer of `dead_param.rs`, its spec sets that fixture's orphan key.

fn create_session(params: &LayerParams) -> Box<dyn Session> {
    Box::new(FixtureSession {
        retention: param_or(params, "retention", 2048usize),
    })
}

fn describe() -> LayerSpec {
    LayerSpec::new("fixture")
        .with_param("retention", "512")
        .with_param("sweep_interval_ms", "100")
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
