//! Fixture: every param a layer reads is set outside test code — by
//! `with_param`, by a description's `<param key="..">`, or by a
//! `(key, value)` list. Expect no findings. Its test sets
//! `dead_param.rs`'s orphan key, which does not make that key live.

fn create_session(params: &LayerParams) -> Box<dyn Session> {
    Box::new(FixtureSession {
        window: param_or(params, "window", 64usize),
        mode: param_or(params, "mode", Mode::Wired),
        retry_ms: param_or(params, "retry_ms", 500u64),
    })
}

fn describe() -> LayerSpec {
    LayerSpec::new("fixture").with_param("window", "32")
}

const DESCRIPTION: &str = "<layer name=\"fixture\"><param key=\"mode\" value=\"wireless\"/></layer>";

fn fast_retry() -> LayerParams {
    let mut params = LayerParams::new();
    for (key, value) in [("retry_ms", "50")] {
        params.insert(key.into(), value.into());
    }
    params
}

#[cfg(test)]
mod tests {
    #[test]
    fn session_reads_its_params() {
        let mut params = LayerParams::new();
        for (key, value) in [("retry_ms", "50"), ("sweep_interval_ms", "100")] {
            params.insert(key.into(), value.into());
        }
        // A test may read a key it does not set: only reads outside test
        // code must be set.
        assert_eq!(param_or(params, "unset_in_tests", 1u32), 1);
    }
}
